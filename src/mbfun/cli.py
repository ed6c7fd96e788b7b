"""Command-line front end.

Subcommands mirror the library: `bf` for b-function engines, `nc` for
normal-crossing root combinatorics, `jump` for multiplier-ideal jumping
numbers, `check` for the cross-checks between them.  `--json` prints a
schema-validating machine report with exact "p/q" rationals and no
timing, so consecutive runs are byte-identical; the human format adds
wall-clock timing.  Exit codes: 0 success, 1 math/capability failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from .annihilator import bernstein_sato, sabbah_line
from .bfunction import BFunction
from .errors import (
    CapabilityError,
    CertificationError,
    NotSpecializableError,
    ZeroSpecializationError,
)
from .merobf import CERTIFIED, UNCERTIFIED, b_mero, b_simple, reduced_b
from .multipoly import MultiPoly
from .multiplier import check_cor_jump, jumping_numbers_nc
from .ncres import (
    NCChart,
    bound_set,
    charts_from_json,
    check_lemma4,
    eigenvalue_classes,
    member,
    roots_nc,
)
from .oracle import DEFAULT_DEG, DEFAULT_N, verify_functional_equation
from .parser import parse_poly, variable_names
from .rationals import format_ratio, parse_ratio

FAILED = "FAILED"
SCHEMA_VERSION = 1


def _roots_payload(b: BFunction):
    if b.roots is None:
        return None
    return [[format_ratio(r), m] for r, m in b.sorted_roots()]


def _b_payload(b: BFunction) -> Dict:
    return {"b": str(b), "roots": _roots_payload(b)}


def _witness_payload(witness) -> Optional[Dict[str, str]]:
    if witness is None:
        return None
    return {str(k): str(op) for k, op in sorted(witness.items())}


def _load_charts(path: str) -> List[NCChart]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return charts_from_json(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read chart file: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed chart file {path}: {exc}") from exc


def _single_chart(path: str) -> NCChart:
    """The one chart of a chart file; jumping numbers need exactly one."""
    charts = _load_charts(path)
    if len(charts) != 1:
        raise ValueError(
            f"jumping numbers work on a single identity-resolution chart; {path} has {len(charts)}"
        )
    return charts[0]


def _parse_pair(args) -> List[MultiPoly]:
    """args.F and args.G over one shared variable list."""
    variables = variable_names(args.F, args.G)
    return [parse_poly(args.F, variables), parse_poly(args.G, variables)]


def _refuse_misfits(charts: Sequence[NCChart], F: MultiPoly, identity: bool) -> None:
    """A chart of a resolution of the pair has at most one coordinate per
    variable, and the identity chart, which jumping numbers read, one each."""
    n = len(F.variables)
    for chart in charts:
        if len(chart.a) > n or identity and len(chart.a) != n:
            raise ValueError(f"chart {chart.label} has {len(chart.a)} coordinates but the "
                             f"pair has {n} variables {F.variables}")


def _check_status(holds: bool, *results) -> str:
    """FAILED when the check fails; else CERTIFIED iff every b read was."""
    if not holds:
        return FAILED
    return CERTIFIED if all(r.status == CERTIFIED for r in results) else UNCERTIFIED


def _monomial_chart(F: MultiPoly, G: MultiPoly, label: str = "origin") -> NCChart:
    if len(F.terms) != 1 or len(G.terms) != 1:
        raise ValueError(
            "this command derives its chart from the inputs and needs "
            "monomial F and G (or an explicit --charts file)"
        )
    (ea, ca), = F.terms.items()
    (eb, cb), = G.terms.items()
    if ca != 1 or cb != 1:
        raise ValueError("monomial inputs must have coefficient 1")
    return NCChart(label, ea, eb, (0,) * len(ea))


# -- subcommand handlers --------------------------------------------------
# each returns (inputs, result, status, notes)


def _run_bf_classic(args):
    F = parse_poly(args.F)
    b = bernstein_sato(F)
    one = MultiPoly.const(F.variables, 1)
    witness = verify_functional_equation(b, F, one, 0, N=1, deg=args.certify_deg)
    result = _b_payload(b)
    result["witness"] = _witness_payload(witness)
    if witness is not None:
        return {"F": str(F)}, result, CERTIFIED, []
    note = (
        f"oracle found no witness with N=1 and operator degree <= {args.certify_deg}; "
        "raise --certify-deg"
    )
    return {"F": str(F)}, result, UNCERTIFIED, [note]


def _run_bf_mero(args):
    F, G = _parse_pair(args)
    N, deg = args.certify
    res = b_mero(F, G, args.m, N=N, deg=deg)
    result = _b_payload(res.b)
    result["witness"] = _witness_payload(res.witness)
    result["engine_b"] = str(res.engine_b) if res.engine_b is not None else None
    inputs = {"F": str(F), "G": str(G), "m": args.m}
    return inputs, result, res.status, list(res.notes)


def _run_bf_simple(args):
    F, G = _parse_pair(args)
    res = b_simple(F, G, args.m)
    result = _b_payload(res.b)
    result["witness"] = _witness_payload(res.witness)
    return {"F": str(F), "G": str(G), "m": args.m}, result, res.status, list(res.notes)


def _run_bf_reduced(args):
    F, G = _parse_pair(args)
    if len(args.weights) != len(F.variables):
        raise ValueError(
            f"--weights needs {len(F.variables)} entries for variables {F.variables}"
        )
    res = reduced_b(F, G, args.weights, args.d1, args.d2)
    result = _b_payload(res.b)
    result["witness"] = _witness_payload(res.witness)
    inputs = {
        "F": str(F),
        "G": str(G),
        "weights": [format_ratio(w) for w in args.weights],
        "d1": format_ratio(args.d1),
        "d2": format_ratio(args.d2),
    }
    return inputs, result, res.status, list(res.notes)


def _run_bf_sabbah(args):
    F, G = _parse_pair(args)
    res = sabbah_line(F, G, args.m)
    result = _b_payload(res.b)
    result["bs_element"] = str(res.bs_element)
    result["witness"] = {"1": str(res.witness)} if res.witness is not None else None
    return {"F": str(F), "G": str(G), "m": args.m}, result, res.status, []


def _run_nc(args):
    charts = _load_charts(args.charts)
    if args.which == "roots":
        per_chart = {
            chart.label: sorted(roots_nc(chart, args.m)) for chart in charts
        }
        result = {
            "roots": {lab: [format_ratio(r) for r in rs] for lab, rs in sorted(per_chart.items())}
        }
    elif args.which == "bound":
        result = {"residues": [format_ratio(r) for r in sorted(bound_set(charts, args.m))]}
    else:  # eigen
        classes = eigenvalue_classes(bound_set(charts, args.m))
        result = {"classes": [format_ratio(r) for r in sorted(classes)]}
    inputs = {"charts": args.charts, "m": args.m}
    return inputs, result, CERTIFIED, []


def _run_jump(args):
    chart = _single_chart(args.charts)
    report = jumping_numbers_nc(chart, args.upper)
    inputs = {"charts": args.charts}
    if args.upper is not None:
        inputs["upper"] = format_ratio(args.upper)
    return inputs, report.to_payload(), CERTIFIED, []


def _run_check_lemma4(args):
    F, G = _parse_pair(args)
    if args.m1 > args.m2:
        raise ValueError("--m1 must be <= --m2")
    small = b_mero(F, G, args.m1)
    big = b_mero(F, G, args.m2)
    roots_small = _roots_or_fail(small.b)
    roots_big = _roots_or_fail(big.b)
    ok, l = check_lemma4(roots_small, roots_big, args.lcap)
    result = {
        "holds": ok,
        "l": l,
        "roots_m1": [format_ratio(r) for r in sorted(roots_small)],
        "roots_m2": [format_ratio(r) for r in sorted(roots_big)],
    }
    status = _check_status(ok, small, big)
    inputs = {"F": str(F), "G": str(G), "m1": args.m1, "m2": args.m2, "lcap": args.lcap}
    return inputs, result, status, []


def _run_check_thm41(args):
    F, G = _parse_pair(args)
    charts = _load_charts(args.charts) if args.charts else [_monomial_chart(F, G)]
    _refuse_misfits(charts, F, identity=False)
    res = b_mero(F, G, args.m)
    roots = _roots_or_fail(res.b)
    B = bound_set(charts, args.m)
    misses = [r for r in sorted(roots) if not member(B, r)]
    ok = not misses
    result = {
        "holds": ok,
        "roots": [format_ratio(r) for r in sorted(roots)],
        "residues": [format_ratio(r) for r in sorted(B)],
        "misses": [format_ratio(r) for r in misses],
    }
    status = _check_status(ok, res)
    inputs = {"F": str(F), "G": str(G), "m": args.m,
              "charts": args.charts if args.charts else "(derived from monomials)"}
    return inputs, result, status, []


def _run_check_corjump(args):
    F, G = _parse_pair(args)
    chart = _single_chart(args.charts) if args.charts else _monomial_chart(F, G)
    report = jumping_numbers_nc(chart, args.upper)
    _refuse_misfits([chart], F, identity=True)
    res = b_mero(F, G, 0)
    ok = check_cor_jump(report, res.b)
    result = {
        "holds": ok,
        "jumps": [format_ratio(j) for j in report.jumps],
        "lct": format_ratio(report.lct),
        "b0": _b_payload(res.b),
    }
    status = _check_status(ok, res)
    inputs = {"F": str(F), "G": str(G),
              "charts": args.charts if args.charts else "(derived from monomials)"}
    return inputs, result, status, []


def _roots_or_fail(b: BFunction) -> List:
    if b.roots is None:
        raise CapabilityError(f"b-function {b} does not split over Q")
    return [r for r, _ in b.sorted_roots()]


# -- dispatch -------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


NONNEG, POSITIVE = _int_at_least(0), _int_at_least(1)


def _certify_bounds(text: str):
    """argparse type for --certify: N,DEG with both >= 1."""
    try:
        n, deg = (POSITIVE(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expects N,DEG with N, DEG >= 1, got {text!r}")
    return n, deg


def _ratio(text: str):
    """argparse type: an exact rational p/q or an integer."""
    try:
        return parse_ratio(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _ratios(text: str):
    """argparse type for --weights: comma-separated exact rationals."""
    return [_ratio(part) for part in text.split(",")]


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mbfun",
        description="Exact Bernstein-Sato polynomials of meromorphic functions F/G.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("F")
    pair.add_argument("G")
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--m", type=NONNEG, default=0)
    sub = top.add_subparsers(dest="group", required=True)

    def add(group, name, helptext, *parents):
        return group.add_parser(name, help=helptext, parents=[common, *parents])

    bf = sub.add_parser("bf", help="b-function engines").add_subparsers(
        dest="which", required=True
    )
    p = add(bf, "classic", "classical b-function of F")
    p.add_argument("F")
    p.add_argument("--certify-deg", type=POSITIVE, default=DEFAULT_DEG)
    p.set_defaults(run=_run_bf_classic)
    p = add(bf, "mero", "meromorphic b-function of F/G at order m", pair, order)
    p.add_argument("--certify", type=_certify_bounds, default=(DEFAULT_N, DEFAULT_DEG),
                   metavar="N,DEG",
                   help="oracle bounds: shift count and operator degree")
    p.set_defaults(run=_run_bf_mero)
    p = add(bf, "simple", "one-term functional equation variant", pair, order)
    p.set_defaults(run=_run_bf_simple)
    p = add(bf, "reduced", "reduced b-function for quasi-homogeneous F, G", pair)
    p.add_argument("--weights", type=_ratios, required=True,
                   help="comma-separated rational weights")
    p.add_argument("--d1", type=_ratio, required=True, help="w-degree of F")
    p.add_argument("--d2", type=_ratio, required=True, help="w-degree of G")
    p.set_defaults(run=_run_bf_reduced)
    p = add(bf, "sabbah-line", "Bernstein-Sato ideal element on s2=-s-m-2", pair, order)
    p.set_defaults(run=_run_bf_sabbah)

    nc = sub.add_parser("nc", help="normal-crossing root combinatorics").add_subparsers(
        dest="which", required=True
    )
    for name, helptext in (
        ("roots", "per-chart candidate root sets"),
        ("bound", "union bound set over all charts"),
        ("eigen", "monodromy eigenvalue classes"),
    ):
        p = add(nc, name, helptext, order)
        p.add_argument("--charts", required=True)
        p.set_defaults(run=_run_nc)

    jump = sub.add_parser("jump", help="multiplier-ideal jumping numbers").add_subparsers(
        dest="which", required=True
    )
    p = add(jump, "nc", "jumping numbers on one identity chart")
    p.add_argument("--charts", required=True)
    p.add_argument("--upper", type=_ratio, default=None)
    p.set_defaults(run=_run_jump)

    check = sub.add_parser("check", help="cross-checks").add_subparsers(
        dest="which", required=True
    )
    p = add(check, "lemma4", "root shifts between two denominator orders", pair)
    p.add_argument("--m1", type=NONNEG, required=True)
    p.add_argument("--m2", type=NONNEG, required=True)
    p.add_argument("--lcap", type=NONNEG, default=5)
    p.set_defaults(run=_run_check_lemma4)
    p = add(check, "thm41", "roots against the chart bound set", pair, order)
    p.add_argument("--charts", default=None)
    p.set_defaults(run=_run_check_thm41)
    p = add(check, "corjump", "jumping numbers against b at m=0", pair)
    p.add_argument("--charts", default=None)
    p.add_argument("--upper", type=_ratio, default=None)
    p.set_defaults(run=_run_check_corjump)
    return top


def _command_echo(argv: Sequence[str]) -> str:
    return "mbfun " + " ".join(argv)


def _print_human(report: Dict, elapsed: float) -> None:
    print(f"command : {report['command']}")
    for key, value in report["inputs"].items():
        print(f"{key:8s}: {value}")
    print(f"status  : {report['status']}")
    for key, value in report["result"].items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key:8s}: {value}")
    for note in report.get("notes", []):
        print(f"note    : {note}")
    print(f"time    : {elapsed:.3f}s")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built once per process: parse_args leaves
    it as it was."""
    return build_arg_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.monotonic()
    try:
        inputs, result, status, notes = args.run(args)
    except (
        CapabilityError,
        NotSpecializableError,
        ZeroSpecializationError,
        CertificationError,
    ) as exc:
        print(f"capability failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": _command_echo(argv),
        "inputs": inputs,
        "status": status,
        "result": result,
        "notes": list(notes),
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_human(report, elapsed)
    return 0 if status in (CERTIFIED, UNCERTIFIED) else 1


if __name__ == "__main__":
    sys.exit(main())

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
import re
import sys
import time
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
from .multipoly import MultiPoly, unify
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
from .parser import PolySyntaxError, parse_poly
from .rationals import format_ratio, parse_ratio

FAILED = "FAILED"
SCHEMA_VERSION = 1


class UsageError(ValueError):
    pass


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
        raise UsageError(f"cannot read chart file: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed chart file {path}: {exc}") from exc


def _parse(text: str, variables=None) -> MultiPoly:
    try:
        return parse_poly(text, variables)
    except PolySyntaxError as exc:
        raise UsageError(f"in {text!r}: {exc}") from exc


def _parse_pair(args) -> List[MultiPoly]:
    """args.F and args.G over one shared variable list."""
    F = _parse(args.F)
    G = _parse(args.G, _shared_vars(args.F, args.G))
    return unify(F, G)


def _check_status(holds: bool, *results) -> str:
    """FAILED when the check fails; else CERTIFIED iff every b read was."""
    if not holds:
        return FAILED
    return CERTIFIED if all(r.status == CERTIFIED for r in results) else UNCERTIFIED


def _monomial_chart(F: MultiPoly, G: MultiPoly, label: str = "origin") -> NCChart:
    F, G = unify(F, G)
    if len(F.terms) != 1 or len(G.terms) != 1:
        raise UsageError(
            "this command derives its chart from the inputs and needs "
            "monomial F and G (or an explicit --charts file)"
        )
    (ea, ca), = F.terms.items()
    (eb, cb), = G.terms.items()
    if ca != 1 or cb != 1:
        raise UsageError("monomial inputs must have coefficient 1")
    return NCChart(label, ea, eb, (0,) * len(ea))


# -- subcommand handlers --------------------------------------------------
# each returns (inputs, result, status, notes)


def _run_bf_classic(args):
    F = _parse(args.F)
    b = bernstein_sato(F)
    one = MultiPoly.const(F.variables, 1)
    witness = verify_functional_equation(b, F, one, 0, N=1, deg=args.certify_deg)
    status = CERTIFIED if witness is not None else UNCERTIFIED
    result = _b_payload(b)
    result["witness"] = _witness_payload(witness)
    return {"F": str(F)}, result, status, []


def _run_bf_mero(args):
    F, G = _parse_pair(args)
    res = b_mero(F, G, args.m, N=args.certify_n, deg=args.certify_deg)
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
    weights = [parse_ratio(w) for w in args.weights.split(",")]
    if len(weights) != len(F.variables):
        raise UsageError(
            f"--weights needs {len(F.variables)} entries for variables {F.variables}"
        )
    res = reduced_b(F, G, weights, parse_ratio(args.d1), parse_ratio(args.d2))
    result = _b_payload(res.b)
    result["witness"] = _witness_payload(res.witness)
    inputs = {
        "F": str(F),
        "G": str(G),
        "weights": [format_ratio(w) for w in weights],
        "d1": format_ratio(parse_ratio(args.d1)),
        "d2": format_ratio(parse_ratio(args.d2)),
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
        B = bound_set(charts, args.m)
        result = {"residues": [format_ratio(r) for r in sorted(B.residues)]}
    else:  # eigen
        B = bound_set(charts, args.m)
        classes = eigenvalue_classes(B.residues)
        result = {"classes": [format_ratio(r) for r in sorted(classes)]}
    inputs = {"charts": args.charts, "m": args.m}
    return inputs, result, CERTIFIED, []


def _run_jump(args):
    charts = _load_charts(args.charts)
    if len(charts) != 1:
        raise UsageError("jump nc works on a single identity-resolution chart")
    upper = parse_ratio(args.upper) if args.upper is not None else None
    report = jumping_numbers_nc(charts[0], upper)
    inputs = {"charts": args.charts}
    if args.upper is not None:
        inputs["upper"] = format_ratio(parse_ratio(args.upper))
    return inputs, report.to_payload(), CERTIFIED, []


def _run_check_lemma4(args):
    F, G = _parse_pair(args)
    if args.m1 > args.m2:
        raise UsageError("--m1 must be <= --m2")
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
    res = b_mero(F, G, args.m)
    roots = _roots_or_fail(res.b)
    B = bound_set(charts, args.m)
    misses = [r for r in sorted(roots) if not member(B, r)]
    ok = not misses
    result = {
        "holds": ok,
        "roots": [format_ratio(r) for r in sorted(roots)],
        "residues": [format_ratio(r) for r in sorted(B.residues)],
        "misses": [format_ratio(r) for r in misses],
    }
    status = _check_status(ok, res)
    inputs = {"F": str(F), "G": str(G), "m": args.m,
              "charts": args.charts if args.charts else "(derived from monomials)"}
    return inputs, result, status, []


def _run_check_corjump(args):
    F, G = _parse_pair(args)
    chart = (
        _load_charts(args.charts)[0] if args.charts else _monomial_chart(F, G)
    )
    upper = parse_ratio(args.upper) if args.upper is not None else None
    report = jumping_numbers_nc(chart, upper)
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


def _shared_vars(*texts: str):
    names = set()
    for t in texts:
        names |= set(re.findall(r"[a-z][a-z0-9]*", t))
    return tuple(sorted(names)) if names else None


# -- dispatch -------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mbfun",
        description="Exact Bernstein-Sato polynomials of meromorphic functions F/G.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")
    sub = top.add_subparsers(dest="group", required=True)

    def add(group, name, helptext):
        return group.add_parser(name, help=helptext, parents=[common])

    bf = sub.add_parser("bf", help="b-function engines").add_subparsers(
        dest="which", required=True
    )
    p = add(bf, "classic", "classical b-function of F")
    p.add_argument("F")
    p.add_argument("--certify-deg", type=int, default=DEFAULT_DEG)
    p.set_defaults(run=_run_bf_classic)
    p = add(bf, "mero", "meromorphic b-function of F/G at order m")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--certify", default=None, metavar="N,DEG",
                   help="oracle bounds: shift count and operator degree")
    p.set_defaults(run=_run_bf_mero)
    p = add(bf, "simple", "one-term functional equation variant")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(run=_run_bf_simple)
    p = add(bf, "reduced", "reduced b-function for quasi-homogeneous F, G")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--weights", required=True, help="comma-separated rational weights")
    p.add_argument("--d1", required=True, help="w-degree of F")
    p.add_argument("--d2", required=True, help="w-degree of G")
    p.set_defaults(run=_run_bf_reduced)
    p = add(bf, "sabbah-line", "Bernstein-Sato ideal element on s2=-s-m-2")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(run=_run_bf_sabbah)

    nc = sub.add_parser("nc", help="normal-crossing root combinatorics").add_subparsers(
        dest="which", required=True
    )
    for name, helptext in (
        ("roots", "per-chart candidate root sets"),
        ("bound", "union bound set over all charts"),
        ("eigen", "monodromy eigenvalue classes"),
    ):
        p = add(nc, name, helptext)
        p.add_argument("--charts", required=True)
        p.add_argument("--m", type=int, default=0)
        p.set_defaults(run=_run_nc)

    jump = sub.add_parser("jump", help="multiplier-ideal jumping numbers").add_subparsers(
        dest="which", required=True
    )
    p = add(jump, "nc", "jumping numbers on one identity chart")
    p.add_argument("--charts", required=True)
    p.add_argument("--upper", default=None)
    p.set_defaults(run=_run_jump)

    check = sub.add_parser("check", help="cross-checks").add_subparsers(
        dest="which", required=True
    )
    p = add(check, "lemma4", "root shifts between two denominator orders")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--lcap", type=int, default=5)
    p.set_defaults(run=_run_check_lemma4)
    p = add(check, "thm41", "roots against the chart bound set")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--charts", default=None)
    p.set_defaults(run=_run_check_thm41)
    p = add(check, "corjump", "jumping numbers against b at m=0")
    p.add_argument("F")
    p.add_argument("G")
    p.add_argument("--charts", default=None)
    p.add_argument("--upper", default=None)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "certify", None) is not None:
        try:
            n_text, deg_text = args.certify.split(",")
            args.certify_n, args.certify_deg = int(n_text), int(deg_text)
        except ValueError:
            print("error: --certify expects N,DEG", file=sys.stderr)
            return 2
    else:
        args.certify_n = DEFAULT_N
        if not hasattr(args, "certify_deg"):
            args.certify_deg = DEFAULT_DEG
    start = time.monotonic()
    try:
        inputs, result, status, notes = args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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

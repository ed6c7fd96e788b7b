"""Regenerate perfbench/data/references.json, the expected answer of every
benchmark query together with where it comes from.

    python3 perfbench/freeze_references.py

Every query is run once, in canonical names, by the checkout's mbfun.

* Where a classical closed form is known, the answer must equal it and the
  closed form is stored.  b_mero(x^a, 1, m) must equal the closed form of
  x^a.
* Every other answer is stored as computed, and only when it is CERTIFIED
  and its witness re-applies here, independently of the oracle's own
  re-check.  Run this at the commit the answers are to be frozen from.
* mero-battery answers also carry their chart, whose bound set K - Z>=0
  must contain every root.

Exits 1, writing nothing, when any of this fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from mbfun import cli, merobf, parser  # noqa: E402
from mbfun.annihilator import sabbah_line  # noqa: E402
from mbfun.multipoly import unify  # noqa: E402
from mbfun.sections import MeroContext, apply_operator, base_section  # noqa: E402


def _roots(mults):
    return [[f"{r.numerator}/{r.denominator}", k] for r, k in sorted(mults.items())]


def monomial(a: int, b: int = 0):
    """b(x^a y^b) = prod_{i=1..a} (s + i/a) * prod_{j=1..b} (s + j/b)."""
    out = {}
    for e in (a, b):
        for i in range(1, e + 1):
            r = Fraction(-i, e)
            out[r] = out.get(r, 0) + 1
    return out


def brieskorn_pham(a: int, b: int):
    """b(x^a + y^b) = (s+1) * prod over distinct v = i/a + j/b (0<i<a, 0<j<b) of (s+v)."""
    out = {Fraction(-1): 1}
    for v in {Fraction(i, a) + Fraction(j, b) for i in range(1, a) for j in range(1, b)}:
        out[-v] = out.get(-v, 0) + 1
    return out


CLOSED_FORMS = {
    "bf classic x^2": (monomial(2), "closed form prod(s+i/a) for x^2"),
    "bf classic x^2*y": (monomial(2, 1), "closed form prod(s+i/a)prod(s+j/b) for x^2 y"),
    "bf classic x^2*y^3": (monomial(2, 3), "closed form prod(s+i/a)prod(s+j/b) for x^2 y^3"),
    "bf classic x^2+y^3": (brieskorn_pham(2, 3), "closed form Brieskorn-Pham (2,3)"),
    "bf classic x^3+y^3": (brieskorn_pham(3, 3), "closed form Brieskorn-Pham (3,3)"),
    "bf classic x^2+y^4": (brieskorn_pham(2, 4), "closed form Brieskorn-Pham (2,4)"),
    "bf classic x^3+y^4": (brieskorn_pham(3, 4), "closed form Brieskorn-Pham (3,4)"),
    "bf classic x^2+y^2+z^2": ({Fraction(-1): 1, Fraction(-3, 2): 1},
                               "closed form (s+1)(s+3/2) for the quadric in 3 variables"),
    "bf classic x*y*(x+y)": (brieskorn_pham(3, 3),
                             "closed form Brieskorn-Pham (3,3): three lines, a linear "
                             "change of coordinates from x^3+y^3"),
}


def _reapplies(F, G, m, b, witness, prefactor=None) -> bool:
    """b(s) f^s/G^m == prefactor * sum_k P_k f^{s+k}/G^m, applied afresh."""
    F, G = unify(F, G)
    ctx = MeroContext(F, G)
    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    total = None
    for k, P in witness.items():
        part = apply_operator(P, base_section(ctx, m, shift=k))
        total = part if total is None else total + part
    if prefactor is not None:
        total = total.scaled(prefactor.extend_to(ctx.ring))
    return total is not None and total.section_eq(lhs)


def _library_witness(argv):
    """(F, G, b, witness dict, prefactor, status) for a bf sabbah-line or
    bf simple query, from the library call the CLI makes."""
    F = parser.parse_poly(argv[2], ("x", "y"))
    G = parser.parse_poly(argv[3], ("x", "y"))
    if argv[1] == "sabbah-line":
        res = sabbah_line(F, G, 0)
        return F, G, res.b, {1: res.witness}, G * G, res.status
    res = merobf.b_simple(F, G, 0)
    return F, G, res.b, res.witness, None, res.status


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--json"])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def freeze_mero(q):
    F_text, G_text, m, names = q.args
    F, G = parser.parse_poly(F_text, names), parser.parse_poly(G_text, names)
    res = merobf.b_mero(F, G, m)
    if res.status != "CERTIFIED" or not _reapplies(F, G, m, res.b, res.witness):
        raise SystemExit(f"{q.qid}: not CERTIFIED with a re-applying witness")
    got = dict(res.b.roots)
    entry = {"roots": _roots(got)}
    if G_text == "1":
        a = int(F_text.split("^")[1])
        if got != monomial(a):
            raise SystemExit(f"{q.qid}: b_mero(F,1,m) differs from the closed form")
        entry["provenance"] = f"b_mero(x^{a},1,m) equals the closed form prod(s+i/a)"
    else:
        entry["provenance"] = "frozen from the seed commit: CERTIFIED, witness re-applied"
    if q.qid.startswith("x^"):  # mero-battery: x^a / y^b
        a = int(F_text.split("^")[1])
        b = 0 if G_text == "1" else int(G_text.split("^")[1])
        chart = {"a": [a, 0][:len(names)], "b": [0, b][:len(names)], "m": m}
        if not all(workloads.in_bound_set(r, chart["a"], chart["b"], m) for r in got):
            raise SystemExit(f"{q.qid}: a root escapes the bound set")
        entry["bound_chart"] = chart
    return entry


def freeze_cli(q):
    report = _cli(q.args)
    if q.qid in CLOSED_FORMS:
        mults, provenance = CLOSED_FORMS[q.qid]
        entry = {"roots": _roots(mults), "provenance": provenance}
    elif q.args[0] == "bf":
        F, G, b, witness, pre, status = _library_witness(q.args)
        if status != "CERTIFIED" or not _reapplies(F, G, 0, b, witness, pre):
            raise SystemExit(f"{q.qid}: not CERTIFIED with a re-applying witness")
        entry = {"roots": _roots(dict(b.roots)),
                 "provenance": "frozen from the seed commit: CERTIFIED, witness re-applied"}
    elif q.args[0] == "check":
        entry = {"result": report["result"],
                 "provenance": "frozen from the seed commit: jumping numbers of the chart "
                               "x^3/y^2 and b_mero(x^3,y^2,0) = prod(s+i/3)"}
    else:
        entry = {"result": report["result"],
                 "provenance": "frozen from the seed commit: chart combinatorics, "
                               "K = {-1/3, -2/3, -1} for the chart x^3/y^2"}
    problem = workloads.check(workloads.Query(q.qid, q.kind, q.args, entry),
                              {"status": report["status"], "result": report["result"]})
    if problem is not None:
        raise SystemExit(f"{q.qid}: {problem}")
    return entry


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    out = {"frozen_at": commit, "workloads": {}}
    for name in workloads.CURATED:
        refs = {}
        for q in workloads.canonical(name):
            refs[q.qid] = freeze_mero(q) if q.kind == "mero" else freeze_cli(q)
            print(f"{name:13s} {q.qid:32s} {refs[q.qid].get('roots', '')}", flush=True)
        out["workloads"][name] = refs
    path = workloads.DATA / "references.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: curated query lists, their seeded draw, how
each query is run against mbfun, and how its answer is checked.

A draw keeps every query of a workload's curated list and changes only
what cannot change the work done: the order of the queries, and the names
of the variables.  Each tuple of names is in alphabetical order, so the
program's sorted variable order, and with it every operation count, is
the same for every seed.  The lists are curated rather than random
because random pairs hit runaways (see FRONTIER).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DATA = Path(__file__).resolve().parent / "data"
CHART = str(DATA / "chart_x3_y2.json")

# Names a draw gives to the canonical variables x, y, z.  None starts with
# "d" or collides with an internal name (s, t, u1, v1, theta, ...).
NAME_POOLS = (
    ("x", "y", "z"),
    ("a", "b", "c"),
    ("p", "q", "r"),
    ("x1", "x2", "x3"),
    ("k", "m", "w"),
    ("e", "f", "g"),
)


@dataclass(frozen=True)
class Query:
    qid: str                 # canonical label; keys the reference answer
    kind: str                # "mero" (library b_mero) or "cli" (cli.main)
    args: Tuple              # mero: (F, G, m, variables); cli: argv
    ref: Dict


def _battery():
    out = []
    for a in (1, 2, 3):
        for b in (0, 1, 2):
            for m in (0, 1, 2):
                if b == 0:
                    out.append((f"x^{a}/1 m={m}", "mero", (f"{{x}}^{a}", "1", m, 1)))
                else:
                    out.append((f"x^{a}/y^{b} m={m}", "mero", (f"{{x}}^{a}", f"{{y}}^{b}", m, 2)))
    return out


def _pairs(items):
    return [(f"({F})/({G}) m={m}", "mero", (F.replace("x", "{x}").replace("y", "{y}"),
                                             G.replace("x", "{x}").replace("y", "{y}"), m, 2))
            for F, G, m in items]


def _cli(argvs):
    return [(" ".join(a.format(x="x", y="y", z="z", chart="x3y2.json") for a in argv),
             "cli", tuple(argv)) for argv in argvs]


CURATED = {
    # b_mero on x^a / y^b: many small queries, most time in oracle
    # minimization and column assembly.
    "mero-battery": _battery(),
    # Non-monomial pairs: the V-filtration engine (Buchberger inside
    # build_sigma, division by (tG-F)^a) does the work; the oracle only
    # certifies, and minimization is skipped because deg b = 1.  Runnable
    # by hand; not in BENCHMARK.json because its run-to-run spread is too
    # wide for the runs the benchmark can afford.
    "mero-engine": _pairs([
        ("x+y^2", "y", 0),
        ("x^2+y", "x", 0),
        ("x+y^2", "x", 0),
        ("x", "x^2+y^2", 0),
        ("x", "x+y", 0),
        ("x+y^2", "y", 1),
        ("x", "x+y", 1),
        ("x+y^2", "y", 2),
        ("x", "x+y", 2),
        ("x+y^2", "x", 1),
        ("x^2+y", "x", 1),
        ("x+y^3", "y", 0),
    ]),
    # The CLI in-process: Buchberger elimination for classical b-functions,
    # N=1 incremental certification (run to exhaustion on the three
    # UNCERTIFIED Brieskorn-Pham items), and the chart commands.
    "cli-classic": _cli([
        ["bf", "classic", "{x}^2"],
        ["bf", "classic", "{x}^2*{y}"],
        ["bf", "classic", "{x}^2*{y}^3"],
        ["bf", "classic", "{x}^2+{y}^3"],
        ["bf", "classic", "{x}^3+{y}^3"],
        ["bf", "classic", "{x}^2+{y}^4"],
        ["bf", "classic", "{x}^3+{y}^4"],
        ["bf", "classic", "{x}^2+{y}^2+{z}^2"],
        ["bf", "classic", "{x}*{y}*({x}+{y})"],
        ["bf", "sabbah-line", "{x}", "{y}"],
        ["bf", "sabbah-line", "{x}^2", "{y}"],
        ["bf", "simple", "{x}", "{y}"],
        ["bf", "simple", "{x}^2", "{y}"],
        ["nc", "bound", "--charts", "{chart}", "--m", "0"],
        ["nc", "eigen", "--charts", "{chart}", "--m", "2"],
        ["jump", "nc", "--charts", "{chart}", "--upper", "1"],
        ["check", "corjump", "{x}^3", "{y}^2", "--upper", "1"],
    ]),
}

# Inputs the program fails on or runs away with at the seed commit.  Run
# only by the traced cli-classic run (the shortest traced run), each under
# FRONTIER_BUDGET_S, so a later capability fix shows as a changed outcome
# class.
FRONTIER = _pairs([
    ("x", "y+1", 0),
    ("x^2+y^3", "x", 0),
    ("x^2-y^2", "y+1", 0),
    ("x*y", "x+y", 0),
    ("x^2", "x+1", 1),
    ("y", "x^2+1", 1),
])
FRONTIER_BUDGET_S = 12.0


def load_references() -> Dict[str, Dict[str, Dict]]:
    with open(DATA / "references.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def _instantiate(workload: str, item, names, refs) -> Query:
    qid, kind, args = item
    x, y, z = names
    if kind == "mero":
        F, G, m, nvars = args
        args = (F.format(x=x, y=y), G.format(x=x, y=y), m, names[:nvars])
    else:
        args = tuple(a.format(x=x, y=y, z=z, chart=CHART) for a in args)
    return Query(qid, kind, args, refs[workload][qid] if refs else {})


def draw(workload: str, seed: int, refs: Dict[str, Dict[str, Dict]]) -> List[Query]:
    """The workload's queries in a seeded order with seeded variable names."""
    rng = random.Random(f"{workload}/{seed}")
    names = rng.choice(NAME_POOLS)
    items = list(CURATED[workload])
    rng.shuffle(items)
    return [_instantiate(workload, item, names, refs) for item in items]


def canonical(workload: str) -> List[Query]:
    """The curated list in its own order and names, without references."""
    return [_instantiate(workload, item, NAME_POOLS[0], None) for item in CURATED[workload]]


def frontier_queries(seed: int) -> List[Query]:
    names = random.Random(f"frontier/{seed}").choice(NAME_POOLS)
    return [_instantiate("frontier", item, names, None) for item in FRONTIER]


# -- running and checking ------------------------------------------------


def _ratio_text(r) -> str:
    return f"{r.numerator}/{r.denominator}"


def execute(query: Query, mbfun) -> Dict:
    """Run one query through the program's public functions.

    Every call goes through a module attribute (mbfun.merobf.b_mero, not a
    name bound at import), so the tracer's wrappers see it.
    """
    if query.kind == "mero":
        F_text, G_text, m, names = query.args
        F = mbfun.parser.parse_poly(F_text, names)
        G = mbfun.parser.parse_poly(G_text, names)
        res = mbfun.merobf.b_mero(F, G, m)
        roots = None
        if res.b.roots is not None:
            roots = [[_ratio_text(r), k] for r, k in res.b.sorted_roots()]
        return {"status": res.status, "roots": roots}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mbfun.cli.main(list(query.args) + ["--json"])
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    return {"status": report["status"], "result": report["result"]}


def _root_multiset(pairs) -> Optional[Dict[Fraction, int]]:
    if pairs is None:
        return None
    out: Dict[Fraction, int] = {}
    for text, mult in pairs:
        r = Fraction(text)
        out[r] = out.get(r, 0) + mult
    return out


def in_bound_set(r: Fraction, a, b, m: int) -> bool:
    """r in K - Z_{>=0} with K = {(m b_i - k)/(a_i - b_i) : a_i > b_i, 1 <= k <= a_i - b_i}."""
    for ai, bi in zip(a, b):
        c = ai - bi
        for k in range(1, c + 1):
            d = Fraction(m * bi - k, c) - r
            if d >= 0 and d.denominator == 1:
                return True
    return False


def check(query: Query, answer: Dict) -> Optional[str]:
    """None when the answer matches the reference; else what differs."""
    ref = query.ref
    if "roots" in ref:
        got = answer.get("roots")
        if got is None and "result" in answer:
            got = answer["result"].get("roots")
        if _root_multiset(got) != _root_multiset(ref["roots"]):
            return f"roots {got} != reference {ref['roots']}"
    for key, want in ref.get("result", {}).items():
        have = answer.get("result", {}).get(key)
        if have != want:
            return f"result[{key!r}] {have} != reference {want}"
    chart = ref.get("bound_chart")
    if chart is not None:
        for text, _ in answer["roots"]:
            if not in_bound_set(Fraction(text), chart["a"], chart["b"], chart["m"]):
                return f"root {text} outside the bound set K - Z>=0"
    return None

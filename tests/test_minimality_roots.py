"""Minimality at the roots of the engine's b, against the joint search.

`oracle.minimize_by_oracle` proves that no b' of lower degree admits the
functional equation at (N, deg) by one span test at each root of a split
engine_b (`oracle._roots_forced`), and runs the joint search
(`minimal_b_search`) only when some root is not forced.  The tests check:

- the images at a point, against substituting s = root + e into the
  full images of the sections the columns stand for;
- on the battery and the ENGINE_PINS pairs, that minimization returns
  engine_b, that the root tests decide wherever deg b >= 2, and that the
  joint search runs exactly where they do not;
- on the seeded superfluous-root cases of
  `test_minimization_matches_root_stripping`, that no root test forces
  them, so the joint search runs on each, and that a root test which
  always answers "forced" gets some of them wrong;
- the size of the largest system that minimization solves on two
  frontier pairs, which the joint search took to 1.65 M and 0.86 M
  nonzeros.
"""

import random
from collections import Counter

import pytest

from mbfun import linalg, merobf, oracle
from mbfun.bfunction import S_VAR
from mbfun.merobf import CERTIFIED
from mbfun.multipoly import MultiPoly
from mbfun.oracle import _columns, context_lattice, minimize_by_oracle
from mbfun.rationals import Q
from mbfun.sections import MeroContext, _common_pows, _Images, base_section
from bfunction_helpers import b_from_roots
from test_merobf import BATTERY, ENGINE_PINS, pair
from test_sections_oracle import MINIMIZATION_CASES, poly, reference_minimize

# the two pairs of the size guards below, which check the same there
GUARDED = [("x^2+x*y", "x^2+2*y^2+x", 0), ("x^2-y^2", "y+1", 0)]
CASES = [
    case for case in BATTERY + [(f, g, m) for f, g, m, _ in ENGINE_PINS] if case not in GUARDED
]
ROOTS_FORCED, JOINT_SEARCH = oracle._roots_forced, oracle.minimal_b_search
SOLVE, MINIMIZE = linalg.solve, oracle.minimize_by_oracle


def seeded_cases():
    """(b, F, G, m, N, deg) of `test_minimization_matches_root_stripping`,
    drawn as it draws them: b_{f,m} with one or two superfluous roots."""
    cases = []
    for text_f, text_g, names, b_roots, degs in MINIMIZATION_CASES:
        F, G = poly(text_f, names), poly(text_g, names)
        for m in (0,) if text_g == "1" else (0, 1):
            for trial in range(4):
                rng = random.Random(f"{text_f}/{text_g}/{m}/{trial}")
                roots = [Q(num, den) for num, den in b_roots]
                extra = rng.randint(1, 2)
                roots += [Q(-rng.randint(1, 6), rng.randint(1, 3)) for _ in range(extra)]
                b = b_from_roots(Counter(roots))
                N, deg = rng.randint(1, 2), rng.choice(degs)
                cases.append((b, F, G, m, N, deg))
    return cases


def observed(monkeypatch, run):
    """run() with minimization observed: the answers of its root tests, the
    number of joint searches it ran and the nonzeros of the largest system
    it solved.  The verification's own searches are not counted."""
    seen = {"answers": [], "joint": 0, "largest": 0}
    inside = [False]

    def forced(*args):
        seen["answers"].append(ROOTS_FORCED(*args))
        return seen["answers"][-1]

    def search(*args, **kwargs):
        seen["joint"] += inside[0]
        return JOINT_SEARCH(*args, **kwargs)

    def solve(rows, rhs, ncols):
        if inside[0]:
            seen["largest"] = max(seen["largest"], sum(map(len, rows)))
        return SOLVE(rows, rhs, ncols)

    def minimize(*args, **kwargs):
        inside[0] = True
        try:
            return MINIMIZE(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(oracle, "_roots_forced", forced)
    monkeypatch.setattr(oracle, "minimal_b_search", search)
    monkeypatch.setattr(linalg, "solve", solve)
    monkeypatch.setattr(merobf, "minimize_by_oracle", minimize)
    return run(minimize), seen


@pytest.mark.parametrize("ftext, gtext, m", [("x^2", "y", 1), ("x^3", "y^2", 0), ("x*y", "x+y", 0)])
@pytest.mark.parametrize("root, nu", [(Q(-1), 0), (Q(-2, 3), 0), (Q(-1, 2), 1), (Q(3, 2), 2)])
def test_images_at_a_point_are_the_substituted_images(ftext, gtext, m, root, nu):
    # the column (elem, shift) stands for x^alpha (s - root)^j elem at the
    # point; its image is q^scale times the numerator over the common
    # denominator, with s = root + e, above e^nu dropped
    ctx = MeroContext(*pair(ftext, gtext))
    v0 = base_section(ctx, m)
    targets = {k: base_section(ctx, m, shift=k) for k in (1, 2)}
    columns = [column for _, column in _columns(targets, 4, context_lattice(ctx), v0, jdeg=nu)]
    rhs = v0.scaled((ctx.s - root) ** nu)
    images = _Images(columns, (root, nu))
    images.powers.append(rhs)
    sections = [
        elem.times(shift[:-1] + (0,), 1).scaled((ctx.s - root) ** shift[-1])
        for elem, shift in columns
    ] + [rhs]
    pows = _common_pows(sections)
    scale = max(elem.numerator.degree_in(S_VAR) for elem, _ in columns + [(rhs, None)])
    e = MultiPoly.var(ctx.ring, S_VAR)
    point = [MultiPoly.var(ctx.ring, x) for x in ctx.xvars] + [e + root]
    for i, section in enumerate(sections):
        full = section.cleared_numerator(pows).compose(point) * root.denominator ** scale
        want = {exps: c for exps, c in full.terms.items() if exps[-1] <= nu}
        got = images.image(i, pows)
        assert got.terms == want
        assert all(type(c) is int for c in got.terms.values())


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_root_tests_decide_minimality(ftext, gtext, m, monkeypatch):
    res, seen = observed(monkeypatch, lambda _: merobf.b_mero(*pair(ftext, gtext), m))
    assert res.status == CERTIFIED and res.notes == ()
    assert res.b.poly == res.engine_b.poly
    if res.engine_b.degree() <= 1:
        assert seen["answers"] == [] and seen["joint"] == 0
    else:
        # every engine_b here splits, and every root of it is forced
        assert seen["answers"] == [True] and seen["joint"] == 0


def test_joint_search_runs_where_a_root_is_not_forced(monkeypatch):
    cases = seeded_cases()
    assert len(cases) == 28
    answers = []
    for case in cases:
        _, seen = observed(monkeypatch, lambda minimize: minimize(*case))
        [forced] = seen["answers"]
        assert seen["joint"] == (not forced)
        answers.append(forced)
    # each b has a root that the equation at its bounds does not need, so
    # none is forced, and each minimization runs the joint search
    assert not any(answers)


def test_a_root_test_that_always_forces_is_caught(monkeypatch):
    monkeypatch.setattr(oracle, "_roots_forced", lambda *args: True)
    wrong = [
        case for case in seeded_cases()
        if minimize_by_oracle(*case).poly != reference_minimize(*case).poly
    ]
    assert wrong


def test_frontier_pair_stays_small(monkeypatch):
    # the joint search solved a system of 1.65 M nonzeros here
    res, seen = observed(monkeypatch, lambda _: merobf.b_mero(*pair(*GUARDED[0][:2]), 0))
    assert res.status == CERTIFIED and str(res.b) == "(s + 3)*(s + 1)"
    assert seen["answers"] == [True] and seen["joint"] == 0
    assert seen["largest"] <= 100_000


def test_double_root_is_forced_at_nu_one(monkeypatch):
    # (s+1)^2 is forced by the span test of (s+1) f^s against the columns
    # with (s+1)^j, j <= 1, modulo (s+1)^2; the joint search solved a
    # system of 0.86 M nonzeros here
    res, seen = observed(monkeypatch, lambda _: merobf.b_mero(*pair(*GUARDED[1][:2]), 0))
    assert res.status == CERTIFIED and str(res.b) == "(s + 1)^2"
    assert seen["answers"] == [True] and seen["joint"] == 0
    assert seen["largest"] == 82_634

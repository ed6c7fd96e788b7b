"""The oracle's fixed-b checks against the solver they used to run.

`verify_functional_equation` and the Sabbah-line witness once built their
own columns and solved lhs = sum_i c_i columns[i] directly; the reference
below keeps that code.  The oracle must return the same operators, in the
same order and with the same coefficient types, and None in the same
cases.  The Sabbah-line reference solves b(s) f^s/G^m = G^2 P f^{s+1}/G^m
with every column times G^2, under the weight rule of the scaled target.
"""

import pytest

from mbfun import linalg
from mbfun.annihilator import sabbah_line
from mbfun.merobf import b_section_along_t, build_sigma
from mbfun.multipoly import unify
from mbfun.oracle import _operators, verify_functional_equation, weight_lattice
from mbfun.parser import parse_poly
from mbfun.rationals import ZERO
from mbfun.sections import MeroContext, base_section, images, operator_columns
from bfunction_helpers import theta_to_s
from column_helpers import passing_shifts, section_of, weight_rule
from test_annihilator import SABBAH_PINS
from test_merobf import BATTERY, ENGINE_PINS, pair

BOUNDS = [(3, 6), (1, 3), (2, 2)]


def reference_values(lhs, columns):
    """c with sum_i c_i columns[i] = lhs, or None: one equation per
    monomial of the images over one common denominator, the columns with a
    zero image dropped."""
    lhs_image, *column_images = images([lhs, *columns])
    kept = [i for i, image in enumerate(column_images) if not image.is_zero()]
    rows, vec = linalg.identity_system([column_images[i].terms for i in kept], lhs_image.terms)
    solution = linalg.solve(rows, vec, len(kept))
    if solution is None:
        return None
    values = dict(zip(kept, solution))
    return [values.get(i, ZERO) for i in range(len(columns))]


def lhs_section(b, ctx, m):
    return base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))


def reference_verify(b, F, G, m, N, deg):
    """{k: P_k} at the least operator degree d <= deg with b(s) f^s/G^m =
    sum_k P_k f^{s+k}/G^m, k = 1..N, or None."""
    ctx = MeroContext(*unify(F, G))
    lattice = weight_lattice(ctx.F, ctx.G)
    lhs = lhs_section(b, ctx, m)
    targets = {k: base_section(ctx, m, shift=k) for k in range(1, N + 1)}
    for d in range(1, deg + 1):
        columns = [
            ((k, key), section_of(elem, shift))
            for k, target in targets.items()
            for key, elem, shift in operator_columns(
                target, d, passing_shifts(target, d, weight_rule(target, lhs, lattice))
            )
        ]
        values = reference_values(lhs, [sec for _, sec in columns])
        if values is not None:
            return _operators(ctx, columns, values)
    return None


def reference_sabbah_witness(b, F, G, m, deg):
    """P with b(s) f^s/G^m = G^2 P f^{s+1}/G^m, or None."""
    ctx = MeroContext(*unify(F, G))
    lhs, pre = lhs_section(b, ctx, m), (ctx.G * ctx.G).extend_to(ctx.ring)
    target = base_section(ctx, m, shift=1)
    keep = weight_rule(target.scaled(pre), lhs, weight_lattice(ctx.F, ctx.G))
    columns = [
        ((1, key), section_of(elem, shift).scaled(pre))
        for key, elem, shift in operator_columns(target, deg, passing_shifts(target, deg, keep))
    ]
    values = reference_values(lhs, [sec for _, sec in columns])
    return None if values is None else _operators(ctx, columns, values)[1]


def exact(ops):
    """The operators in order, each term with its coefficient's type, so
    that 1 and Fraction(1) differ."""
    if ops is None:
        return None
    return [
        (k, [(exps, type(c), c) for exps, c in sorted(P.terms.items())]) for k, P in ops.items()
    ]


def engine_b(ftext, gtext, m, p_theta=None):
    if p_theta is None:
        return b_section_along_t(build_sigma(*pair(ftext, gtext), m))
    return theta_to_s(parse_poly(p_theta, ("theta",)))


CASES = [(f, g, m, None) for f, g, m in BATTERY] + ENGINE_PINS


@pytest.mark.parametrize("ftext, gtext, m, p_theta", CASES)
def test_verify_matches_the_direct_solver(ftext, gtext, m, p_theta):
    F, G = pair(ftext, gtext)
    b = engine_b(ftext, gtext, m, p_theta)
    for N, deg in BOUNDS:
        want = reference_verify(b, F, G, m, N, deg)
        got = verify_functional_equation(b, F, G, m, N, deg)
        assert exact(got) == exact(want), (N, deg)


def test_verify_bounds_meet_both_outcomes():
    # the bounds above leave some engine values without a witness
    outcomes = {
        verify_functional_equation(engine_b(f, g, m), *pair(f, g), m, N, deg) is None
        for f, g, m in [("x^3", "1", 0), ("x^2", "y", 1)]
        for N, deg in BOUNDS
    }
    assert outcomes == {True, False}


SABBAH_PAIRS = sorted({(f, g) for f, g, *_ in SABBAH_PINS})


@pytest.mark.parametrize("ftext, gtext", SABBAH_PAIRS)
@pytest.mark.parametrize("m", [0, 1])
def test_sabbah_witness_matches_the_scaled_columns(ftext, gtext, m):
    F, G = pair(ftext, gtext)
    for deg in (6, 1):
        res = sabbah_line(F, G, m, witness_deg=deg)
        want = reference_sabbah_witness(res.b, F, G, m, deg)
        assert exact(None if res.witness is None else {1: res.witness}) == exact(
            None if want is None else {1: want}
        ), deg
        assert res.status == ("UNCERTIFIED" if want is None else "CERTIFIED")

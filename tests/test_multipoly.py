"""Exact multivariate polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun.multipoly import (
    ExponentOverflow,
    MultiPoly,
    poly_from_roots,
    rational_roots,
    unify,
)
from mbfun.rationals import Q

XY = ("x", "y")


def P(text):
    from mbfun.parser import parse_poly

    return parse_poly(text, XY)


def small_polys():
    coeff = st.integers(-4, 4).map(Q)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda d: MultiPoly(XY, {e: c for e, c in d.items() if c != 0})
    )


class TestArithmetic:
    def test_add_sub(self):
        assert P("x + y") - P("y") == P("x")

    def test_product(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_power(self):
        assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")

    def test_scalar_coefficients_stay_exact(self):
        p = Q(1, 3) * P("x") + Q(1, 6) * P("x")
        assert p == Q(1, 2) * P("x")

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


class TestCalculusAndStructure:
    def test_derivative_product_rule(self):
        f, g = P("x^2*y + 1"), P("x - y^3")
        lhs = (f * g).derivative("x")
        assert lhs == f.derivative("x") * g + f * g.derivative("x")

    def test_evaluate(self):
        assert P("x^2 + y").evaluate({"x": Q(2), "y": Q(-1)}) == Q(3)

    def test_unify_extends_variable_sets(self):
        from mbfun.parser import parse_poly

        a = parse_poly("x")
        b = parse_poly("z")
        ua, ub = unify(a, b)
        assert ua.variables == ub.variables == ("x", "z")
        assert ua * ub == parse_poly("x*z")

    def test_exponent_guard(self):
        huge = MultiPoly(XY, {(2**61, 0): Q(1)})
        with pytest.raises(ExponentOverflow):
            huge * huge

    @given(small_polys(), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=40, deadline=None)
    def test_shifted_is_product_with_monomial(self, p, exps):
        assert p.shifted(exps) == p * MultiPoly(XY, {exps: Q(1)})

    def test_shifted_guards_exponents(self):
        huge = MultiPoly(XY, {(2**61, 1): Q(1)})
        assert huge.shifted((2**61 - 1, 0)).terms == {(2**62 - 1, 1): 1}
        with pytest.raises(ExponentOverflow):
            huge.shifted((2**61, 0))
        with pytest.raises(ValueError, match="length"):
            huge.shifted((1,))


class TestDivision:
    def test_divmod_single(self):
        q, r = P("x^3 + x*y").divmod_single(P("x"))
        assert q == P("x^2 + y") and r.is_zero()

    @given(small_polys(), small_polys(), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_divmod_single_is_division_with_remainder(self, a, d, scale):
        if d.is_zero():
            return
        d = d * Q(1, scale)
        q, r = a.divmod_single(d)
        assert q * d + r == a
        lead, _ = d.leading()
        for exps in r.terms:
            assert not all(x >= y for x, y in zip(exps, lead))
        assert all(type(c) in (int, Fraction) for c in list(q.terms.values()) + list(r.terms.values()))

    def test_divides(self):
        assert P("x + y").divides(P("x^2 - y^2"))
        assert not P("x + 1").divides(P("x^2 + 1"))

    def test_exact_quotient_roundtrip(self):
        a, b = P("x^2 + y"), P("x - y")
        assert (a * b).exact_quotient(b) == a

    def test_content_primitive_monic(self):
        p = Q(4, 6) * P("x") + Q(2, 3) * P("y")
        prim = p.primitive()
        assert prim == P("x + y")
        assert P("2*x + 2").monic() == P("x + 1")


class TestRoots:
    def test_rational_roots_full_split(self):
        p = poly_from_roots(("s",), "s", {Q(-1): 2, Q(-1, 2): 1})
        roots, rem = rational_roots(p)
        assert roots == {Q(-1): 2, Q(-1, 2): 1}
        assert rem.is_constant()

    def test_rational_roots_irreducible_remainder(self):
        from mbfun.parser import parse_poly

        roots, rem = rational_roots(parse_poly("s^2 + 1", ("s",)))
        assert roots == {}
        assert rem.degree_in("s") == 2

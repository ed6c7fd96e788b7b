"""Exact multivariate polynomial arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun.bfunction import BFunction
from mbfun import multipoly
from mbfun.multipoly import (
    MultiPoly,
    rational_roots,
    unify,
)
from mbfun.rationals import Q, ZERO, coprime_integers

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

    def test_unify_extends_variable_sets(self):
        from mbfun.parser import parse_poly

        a = parse_poly("x")
        b = parse_poly("z")
        ua, ub = unify(a, b)
        assert ua.variables == ub.variables == ("x", "z")
        assert ua * ub == parse_poly("x*z")

    @given(small_polys(), small_polys(), small_polys(), small_polys())
    @settings(max_examples=30, deadline=None)
    def test_compose_is_the_substitution_homomorphism(self, a, b, u, v):
        images = [u, v]
        assert P("x").compose(images) == u and P("y").compose(images) == v
        assert (a + b).compose(images) == a.compose(images) + b.compose(images)
        assert (a * b).compose(images) == a.compose(images) * b.compose(images)
        assert a.compose([P("x"), P("y")]) == a

    @given(small_polys(), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=40, deadline=None)
    def test_shifted_is_product_with_monomial(self, p, exps):
        assert p.shifted(exps) == p * MultiPoly(XY, {exps: Q(1)})

    def test_shifted_checks_length(self):
        # exponents are Python ints: arithmetic is exact at any size, and
        # the parser is what bounds the exponents of an input
        huge = MultiPoly(XY, {(2**61, 1): Q(1)})
        assert huge.shifted((2**61, 0)).terms == {(2**62, 1): 1}
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
        assert P("x^2 - y^2").divmod_single(P("x + y"))[1].is_zero()
        assert not P("x^2 + 1").divmod_single(P("x + 1"))[1].is_zero()

    def test_exact_quotient_roundtrip(self):
        a, b = P("x^2 + y"), P("x - y")
        assert (a * b).divmod_single(b) == (a, MultiPoly.zero(XY))

    def test_content_primitive_monic(self):
        p = Q(4, 6) * P("x") + Q(2, 3) * P("y")
        prim = MultiPoly(XY, coprime_integers(p.terms))
        assert prim == P("x + y")
        assert P("2*x + 2").monic() == P("x + 1")


class TestRoots:
    def test_rational_roots_full_split(self):
        from mbfun.parser import parse_poly

        p = parse_poly("(s + 1)^2*(s + 1/2)", ("s",))
        assert rational_roots(p) == {Q(-1): 2, Q(-1, 2): 1}
        assert BFunction.from_poly(p).roots == {Q(-1): 2, Q(-1, 2): 1}

    def test_rational_roots_irreducible_remainder(self):
        from mbfun.parser import parse_poly

        p = parse_poly("(s^2 + 1)*(s - 2)", ("s",))
        assert rational_roots(p) == {2: 1}
        assert BFunction.from_poly(p).roots is None


def _int_divisors(n):
    """The positive divisors of n, by trial division up to its square root."""
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def reference_rational_roots(p):
    """rational_roots as it was: every unreduced candidate +-a/q evaluated
    in Fraction arithmetic, and the search started over after each root.
    Returns the roots and what is left of p once they are divided out."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    live = [v for v in p.variables if p.degree_in(v) > 0]
    if len(live) > 1:
        raise ValueError("not univariate")
    if not live:
        return {}, p
    name = live[0]
    var = MultiPoly.var(p.variables, name)
    roots = {}
    work = p
    while work.degree_in(name) > 0:
        coeffs = work.univariate_in(name)
        coeffs = list(coprime_integers(dict(enumerate(coeffs))).values())
        lead = coeffs[-1]
        k = 0
        while coeffs[k] == 0:
            k += 1
        if k:
            roots[ZERO] = roots.get(ZERO, 0) + k
            terms = {}
            idx = work.variables.index(name)
            for exps, coeff in work.terms.items():
                new = list(exps)
                new[idx] -= k
                terms[tuple(new)] = coeff
            work = MultiPoly(work.variables, terms)
            continue
        const = coeffs[k]
        found = None
        for pn in _int_divisors(const):
            for qn in _int_divisors(lead):
                for sign in (1, -1):
                    cand = Q(sign * pn, qn)
                    if sum(c * cand**i for i, c in enumerate(coeffs)) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        work, rem = work.divmod_single(var - MultiPoly.const(p.variables, found))
        assert rem.is_zero()
    return roots, work


def reference_from_poly(poly):
    """BFunction.from_poly as it was: roots kept iff what is left once
    they are divided out is constant."""
    poly = poly.monic()
    roots, rem = reference_rational_roots(poly)
    return BFunction(poly, roots if rem.is_constant() else None)


def random_factored(rng, variables, name):
    """A rational constant times rational linear factors (repeats and the
    root 0 included) and irreducible quadratics v^2 + c, c > 0, in name."""
    v = MultiPoly.var(variables, name)
    out = MultiPoly.const(variables, Q(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3, 7])))
    for _ in range(rng.randint(0, 5)):
        root = Q(rng.randint(-6, 6), rng.randint(1, 4))
        out = out * (v - MultiPoly.const(variables, root))
    for _ in range(rng.randint(0, 2)):
        out = out * (v * v + MultiPoly.const(variables, Q(rng.randint(1, 5), rng.randint(1, 3))))
    return out


def exact_split(roots, splits):
    """The roots in order with their types, and whether they split p."""
    return [(r, type(r), m) for r, m in roots.items()], splits


def bfunction_parts(b):
    return b.roots, b.poly.variables, b.poly.terms, str(b)


@pytest.mark.parametrize("variables, name", [(("s",), "s"), (("x", "s", "y"), "s")])
def test_rational_roots_matches_the_restarting_search(variables, name):
    rng = random.Random(f"rational_roots/{variables}")
    for _ in range(150):
        p = random_factored(rng, variables, name)
        roots = rational_roots(p)
        want_roots, want_rem = reference_rational_roots(p)
        assert exact_split(roots, sum(roots.values()) == p.total_degree()) == exact_split(
            want_roots, want_rem.is_constant()
        ), p
        got, want = BFunction.from_poly(p), reference_from_poly(p)
        assert bfunction_parts(got) == bfunction_parts(want), p
        if got.roots is not None:
            assert [type(r) for r in got.roots] == [type(r) for r in want.roots], p


def divisor_rational_roots(p):
    """rational_roots as it was before real-root isolation: every reduced
    candidate a/q with a | c_0 and q | c_n, by trial division, tested in
    the order of (|a|, q, sign) and divided out as often as it divides."""
    live = [v for v in p.variables if p.degree_in(v) > 0]
    if not live:
        return {}
    coeffs = list(coprime_integers(dict(enumerate(p.univariate_in(live[0])))).values())
    roots = {}
    zeros = next(i for i, c in enumerate(coeffs) if c)
    if zeros:
        roots[ZERO] = zeros
        coeffs = coeffs[zeros:]
    for a in _int_divisors(coeffs[0]):
        for q in _int_divisors(coeffs[-1]):
            if len(coeffs) == 1 or math.gcd(a, q) != 1:
                continue
            for num in (a, -a):
                if sum(c * Q(num, q) ** i for i, c in enumerate(coeffs)) == 0:
                    mult = 0
                    while True:
                        quotient, rem = divmod_linear(coeffs, num, q)
                        if rem:
                            break
                        coeffs, mult = quotient, mult + 1
                    roots[Q(num, q)] = mult
    return roots


def divmod_linear(coeffs, num, q):
    """(coeffs / (q v - num), whether a remainder is left), over Q."""
    out, b = [], Q(0)
    for c in reversed(coeffs[1:]):
        b = (c + num * b) / Q(q)
        out.append(b)
    out = out[::-1]
    if coeffs[0] + num * b or any(Fraction(c).denominator != 1 for c in out):
        return coeffs, True
    return [int(c) for c in out], False


# Factors without a rational root: two with real roots, so that a search
# meets irrational roots, and the rest with none.
IRREDUCIBLE = ["s^2 - 2", "s^2 - 3", "s^3 - 2", "2*s^3 - 3", "s^3 + s + 1", "s^2 + 1", "3*s^2 + 2"]


@pytest.mark.parametrize("seed", range(4))
def test_rational_roots_matches_the_divisor_search(seed):
    from mbfun.parser import parse_poly

    rng = random.Random(f"rational_roots/divisors/{seed}")
    s = MultiPoly.var(("s",), "s")
    irreducible = [parse_poly(text, ("s",)) for text in IRREDUCIBLE]
    split = 0
    for _ in range(60):
        p = MultiPoly.const(("s",), Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5])))
        for _ in range(rng.randint(1, 6)):
            p = p * (s - MultiPoly.const(("s",), Q(rng.randint(-30, 30), rng.randint(1, 12))))
        if rng.random() < 0.5:
            p = p * rng.choice(irreducible)
        got, want = rational_roots(p), divisor_rational_roots(p)
        assert list(got.items()) == list(want.items()), p
        assert [type(r) for r in got] == [type(r) for r in want], p
        split += sum(got.values()) == p.total_degree()
    assert 10 <= split < 60


# Powers of one factor, and products with repeated factors: the bisection
# at odd degree divides a root out down to a constant, and the Sturm
# search meets a c that is not squarefree.
POWERS = [
    "(s+1)^3",
    "(2*s+1)^5",
    "-(3*s-2)^3",
    "(s+1)^2*(s+2)^2",
    "(s+1)^3*(2*s+3)^2*(s^2-2)",
    "(s^2-2)^2*(3*s+1)",
    "(s^2+1)^2*(s-5)^4",
    "(s^3-2)*(s+1/2)^2",
]


@pytest.mark.parametrize("text", POWERS)
def test_rational_roots_of_powers_matches_the_divisor_search(text):
    from mbfun.parser import parse_poly

    p = parse_poly(text, ("s",))
    got, want = rational_roots(p), divisor_rational_roots(p)
    assert list(got.items()) == list(want.items())
    assert [type(r) for r in got] == [type(r) for r in want]


def test_bf_classic_of_a_lone_power_answers(capsys):
    # b = (s + 1)^3: its roots come from dividing one root out to a constant.
    import json

    from mbfun.cli import main

    assert main(["bf", "classic", "x*y*z", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["roots"] == [["-1/1", 3]]


def test_rational_roots_of_a_high_degree_b_without_factoring(monkeypatch):
    # A deterministic guard in place of a timing test: the b of x^3+y^7
    # has degree 13, with end coefficients near 4*10^15 and 7*10^15;
    # finding its roots evaluates it at 861 points, where trial division
    # of both ends looped about 1.5*10^8 times (23 s).
    from mbfun.annihilator import bernstein_sato
    from mbfun.parser import parse_poly

    calls = [0]
    evaluate = multipoly._integer_value

    def counted(*args):
        calls[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(multipoly, "_integer_value", counted)
    b = bernstein_sato(parse_poly("x^3+y^7", XY))
    assert b.degree() == 13 and sum(b.roots.values()) == 13
    assert min(b.roots) == Q(-32, 21) and max(b.roots) == Q(-10, 21)
    assert 0 < calls[0] <= 1_000

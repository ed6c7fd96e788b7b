"""The oracle's degree ladder, operator application, and the polynomial
product and substitution against the forms they replaced.

The references below keep that code:

- `old_ladder` is `verify_functional_equation` when its degree bound grew
  from 1, with one `minimal_b_search` per degree;
- `old_apply` applies an operator one term at a time, deriving d^beta v
  from v for every term and adding each part to the running sum;
- `old_mul` is the double loop over both operands' terms, and
  `old_compose` substitutes term by term, raising an image to each
  exponent anew.

The package must give the same witnesses, with the same coefficient types,
the same sections, and the same terms in the same order.  `first_degree`
finds the least operator degree at which some target has an operator
shift of the weight the equation needs, by one `shift_table` lookup per
degree; it, and `oracle._first_degree`, where the ladder starts, must be
the least degree at which `oracle._columns` builds a column.
"""

import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun import sections
from mbfun.annihilator import bernstein_sato
from mbfun.multipoly import MultiPoly
from mbfun.oracle import (
    DEFAULT_DEG,
    DEFAULT_N,
    _columns,
    _first_degree,
    _rest_weights,
    minimal_b_search,
    verify_functional_equation,
    weight_lattice,
)
from mbfun.parser import parse_poly
from mbfun.rationals import ZERO, Q
from mbfun.sections import (
    DeltaContext,
    LaurentSection,
    MeroContext,
    base_section,
    shift_table,
)
from mbfun.weyl import WeylElement
from test_annihilator import CLASSIC_F
from test_merobf import pair
from test_oracle_reference import CASES, engine_b, exact
from test_shift_table import CONTEXTS


# -- the degree ladder -------------------------------------------------------


def old_ladder(b, F, G, m=0, N=DEFAULT_N, deg=DEFAULT_DEG):
    """{k: P_k} at the least operator degree d = 1 .. deg that solves, or
    None: every degree is searched, with or without a column."""
    ctx = MeroContext(F, G)
    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    targets = [base_section(ctx, m, shift=k) for k in range(1, N + 1)]
    for d in range(1, deg + 1):
        found = minimal_b_search(ctx, lhs, targets, d, max_bdeg=0)
        if found is not None:
            return {r + 1: P for r, P in enumerate(found[1]) if not P.is_zero()}
    return None


@pytest.mark.parametrize("ftext, gtext, m, p_theta", CASES)
def test_ladder_matches_the_old_ladder(ftext, gtext, m, p_theta):
    # the battery at m = 0, 1, 2 and the engine pins, at b_mero's bounds
    F, G = pair(ftext, gtext)
    b = engine_b(ftext, gtext, m, p_theta)
    assert exact(verify_functional_equation(b, F, G, m)) == exact(old_ladder(b, F, G, m))


@pytest.mark.parametrize("text", CLASSIC_F)
def test_classical_ladder_matches_the_old_ladder(text):
    # b_classic's certification: G = 1, N = 1, three of them run out
    F = parse_poly(text)
    G = MultiPoly.const(F.variables, 1)
    b = bernstein_sato(F)
    got = verify_functional_equation(b, F, G, 0, N=1, deg=DEFAULT_DEG)
    assert exact(got) == exact(old_ladder(b, F, G, 0, N=1, deg=DEFAULT_DEG))


def first_degree(targets, lattice, rhs, deg):
    """Least d in 1 .. deg at which some target has a shift of rhs's weight
    less its own, for the weights of the lattice both have; None when no d
    does.  One `shift_table` lookup per degree, none above the answer."""
    n = len(rhs.ctx.sig.pairs)
    rests = []
    for target in targets.values():
        rest = {}
        for w in lattice:
            want, own = rhs.weight(w), target.weight(w)
            if None not in (want, own):
                rest[w] = want - own
        rests.append((tuple(rest), tuple(rest.values())))
    for d in range(1, deg + 1):
        if any(rest in shift_table(n, d, lat) for lat, rest in rests):
            return d
    return None


def brute_first_degree(targets, lattice, rhs, deg):
    """Least d in 1 .. deg at which `_columns` builds a column, or None."""
    return next((d for d in range(1, deg + 1) if _columns(targets, d, lattice, rhs)), None)


def ladder_equations(ctx, m):
    """(targets, rhs) of the equations the oracle solves on ctx: N = 1 and
    N = 3 against f^s/G^m and the prefactored b(s) f^s/G^(m+2), and a
    target that some weights leave inhomogeneous."""
    shifted = {r: base_section(ctx, m, shift=r + 1) for r in range(3)}
    inhomogeneous = shifted[0].scaled(MultiPoly.var(ctx.ring, ctx.xvars[0]) + 1)
    for rhs in (base_section(ctx, m), LaurentSection(ctx, ctx.s + 1, (0, m + 2))):
        yield {0: shifted[0]}, rhs
        yield shifted, rhs
    yield {0: inhomogeneous}, base_section(ctx, m)


@pytest.mark.parametrize("ftext, gtext, m", CONTEXTS)
def test_first_degree_is_the_least_degree_with_a_column(ftext, gtext, m):
    ctx = MeroContext(*pair(ftext, gtext))
    lattice = weight_lattice(ctx.F, ctx.G)
    for targets, rhs in ladder_equations(ctx, m):
        for deg in (1, 3, 6):
            want = brute_first_degree(targets, lattice, rhs, deg)
            assert first_degree(targets, lattice, rhs, deg) == want, (rhs, deg)
            rests = _rest_weights(targets, lattice, rhs)
            assert _first_degree(len(ctx.sig.pairs), rests, deg) == want, (rhs, deg)


def test_first_degree_reaches_past_one():
    # x^3/y^2 at m = 0 has its first column at degree 5
    ctx = MeroContext(*pair("x^3", "y^2"))
    targets = {r: base_section(ctx, 0, shift=r + 1) for r in range(3)}
    lattice = weight_lattice(ctx.F, ctx.G)
    rhs = base_section(ctx, 0)
    assert first_degree(targets, lattice, rhs, 6) == 5
    assert first_degree(targets, lattice, rhs, 4) is None
    rests = _rest_weights(targets, lattice, rhs)
    assert _first_degree(2, rests, 6) == 5 and _first_degree(2, rests, 4) is None


# -- operator application ------------------------------------------------------


def old_apply(P, v):
    """P v term by term: each term derives v afresh, acts by its
    coordinates, and is added to the running sum."""
    ctx = v.ctx
    sig = ctx.sig
    ncoords = len(sig.coords)
    total = None
    for exps, coeff in sorted(P.terms.items()):
        part = v
        for ci, di in sig.pairs:
            for _ in range(exps[di]):
                part = part.derivative(sig.coords[ci])
        part = part.times(exps[:ncoords], coeff)
        total = part if total is None else total + part
    return v.scaled(MultiPoly.zero(ctx.ring)) if total is None else total


COEFFS = (1, -1, 2, -3, Q(1, 2), Q(-2, 3))


def seeded_operator(rng, sig, nterms):
    """nterms random terms over sig: coordinates and derivations of
    exponent <= 2, few distinct derivative parts, so terms share them."""
    ncoords = len(sig.coords)
    derivs = [tuple(rng.randint(0, 2) for _ in sig.derivs) for _ in range(2)]
    terms = {}
    for _ in range(nterms):
        coords = tuple(rng.randint(0, 2) for _ in range(ncoords))
        terms[coords + rng.choice(derivs)] = rng.choice(COEFFS)
    return WeylElement(sig, terms)


APPLY_PAIRS = [
    ("x^2", "1", 0), ("x^3", "y^2", 1), ("x*y", "x+y", 0), ("x^2+y^3", "x", 2),
    ("x^2-y^2", "y+1", 0), ("x", "y+1", 1),
]


@pytest.mark.parametrize("ftext, gtext, m", APPLY_PAIRS)
def test_apply_matches_the_term_by_term_form(ftext, gtext, m):
    F, G = pair(ftext, gtext)
    rng = random.Random(f"apply {ftext}/{gtext}/{m}")
    mero, delta = MeroContext(F, G), DeltaContext(F, G, m)
    theta = WeylElement.gen(delta.sig, "t") * WeylElement.gen(delta.sig, "dt")
    sigma = delta.generator()
    for v in (
        base_section(mero, m), base_section(mero, m, shift=2),
        sigma, old_apply(theta, sigma),
    ):
        assert sections._apply(WeylElement.zero(v.ctx.sig), v) == old_apply(
            WeylElement.zero(v.ctx.sig), v
        )
        for trial in range(12):
            P = seeded_operator(rng, v.ctx.sig, 1 + trial % 6)
            got = sections._apply(P, v)
            assert got == old_apply(P, v), P
            assert got.pows == old_apply(P, v).pows


# -- product and substitution --------------------------------------------------

XY = ("x", "y")


def old_mul(a, b):
    """The double loop over the terms of a, then of b."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(map(add, e1, e2))
            terms[exps] = terms.get(exps, ZERO) + c1 * c2
    return a._wrap({e: c for e, c in terms.items() if c})


def old_pow(p, power):
    result, base = MultiPoly.const(p.variables, 1), p
    while power:
        if power & 1:
            result = old_mul(result, base)
        power >>= 1
        if power:
            base = old_mul(base, base)
    return result


def old_compose(p, images):
    acc = MultiPoly.zero(images[0].variables)
    for exps, coeff in p.terms.items():
        term = acc._constant(coeff)
        for image, e in zip(images, exps, strict=True):
            term = old_mul(term, old_pow(image, e))
        acc = acc + term
    return acc


def listed(p):
    """The terms in order, each with its coefficient's type."""
    return [(exps, type(c), c) for exps, c in p.terms.items()]


def polys(variables=XY, max_exp=3, max_size=4):
    coeff = st.sampled_from([1, -1, 2, -4, Q(1, 2), Q(-3, 2), Q(5, 3)])
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return st.dictionaries(exps, coeff, max_size=max_size).map(
        lambda d: MultiPoly(variables, d)
    )


# one-term operands drawn often: constants, monomials and their multiples
one_term = polys(max_size=1)


@given(st.one_of(polys(), one_term), st.one_of(polys(), one_term))
@settings(max_examples=200, deadline=None)
def test_product_matches_the_double_loop(a, b):
    assert listed(a * b) == listed(old_mul(a, b))
    assert listed(b * a) == listed(old_mul(b, a))


@given(polys(("u", "v")), st.one_of(polys(), one_term), st.one_of(polys(), one_term))
@settings(max_examples=100, deadline=None)
def test_compose_matches_the_term_by_term_form(p, u, v):
    assert listed(p.compose([u, v])) == listed(old_compose(p, [u, v]))


@given(polys(("theta",), max_exp=9, max_size=10), polys(("s",), max_exp=2))
@settings(max_examples=60, deadline=None)
def test_univariate_compose_matches_the_term_by_term_form(p, image):
    # theta_to_s substitutes -s - 1 into p(theta) this way
    assert listed(p.compose([image])) == listed(old_compose(p, [image]))

"""The shared sparse-term arithmetic against its per-class form.

`MultiPoly` and `WeylElement` once each carried their own sum, negation,
scalar product, degree and printing, and `WeylElement.content_primitive`,
the polynomial primitive part, `oracle.weight_lattice` and the row step of
`linalg` each scaled to coprime integers their own way.  The reference
functions below are those forms, on plain term dicts, kept here as the
test oracle: on seeded random elements the package must give the same
terms and the same text.  The last tests pin the boundary between the two
classes: a polynomial and an operator never mix, even when the
polynomial's variables are the signature's names.
"""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from mbfun import linalg
from mbfun.multipoly import MultiPoly
from mbfun.oracle import weight_lattice
from mbfun.rationals import Q, coprime_integers
from mbfun.weyl import AlgebraSignature, SignatureMismatch, WeylElement

SEED = 20261019
ROUNDS = 60

SIGS = (
    AlgebraSignature.make(pairs=[("x", "dx"), ("y", "dy")], central=["s"]),
    AlgebraSignature.make(pairs=[("x", "dx")], shift_pairs=[("s", "dt")]),
    AlgebraSignature.make(pairs=[("x", "dx")]).homogenized(),
)
VARIABLES = (("x",), ("x", "y"), ("s", "x", "y"))
SCALARS = (0, 1, -1, 3, Q(1, 2), Q(-5, 3))


# -- the per-class reference -----------------------------------------------


def ref_add(a, b):
    terms = dict(a)
    for exps, coeff in b.items():
        acc = terms.get(exps, 0) + coeff
        if acc == 0:
            terms.pop(exps, None)
        else:
            terms[exps] = acc
    return terms


def ref_neg(a):
    return {e: -c for e, c in a.items()}


def ref_scaled(a, scalar):
    scalar = Q(scalar)
    return {} if scalar == 0 else {e: c * scalar for e, c in a.items()}


def ref_const(n, value):
    value = Q(value)
    return {(0,) * n: value} if value != 0 else {}


def ref_total_degree(a):
    return max((sum(e) for e in a), default=0)


def ref_revlex_key(exps):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def ref_coeff_text(coeff):
    if coeff.denominator == 1:
        return str(coeff.numerator)
    return f"{coeff.numerator}/{coeff.denominator}"


def ref_str(names, a):
    terms = sorted(a.items(), key=lambda t: ref_revlex_key(t[0]), reverse=True)
    if not terms:
        return "0"
    parts = []
    for exps, coeff in terms:
        body = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
        )
        if not body:
            chunk = ref_coeff_text(coeff)
        elif coeff == 1:
            chunk = body
        elif coeff == -1:
            chunk = f"-{body}"
        else:
            chunk = f"{ref_coeff_text(coeff)}*{body}"
        parts.append(chunk)
    out = parts[0]
    for chunk in parts[1:]:
        out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return out


def ref_content(values):
    g, l = 0, 1
    for c in values:
        g = gcd(g, c.numerator)
        l = l * c.denominator // gcd(l, c.denominator)
    return Q(g, l)


def ref_content_primitive(a):
    if not a:
        return {}
    content = ref_content(a.values())
    num, den = content.numerator, content.denominator
    if a[max(a, key=ref_revlex_key)] < 0:
        num = -num
    return {e: c.numerator * (den // c.denominator) // num for e, c in a.items()}


def ref_from_poly(sig, poly):
    positions = [sig.index(v) for v in poly.variables]
    terms = {}
    for exps, coeff in poly.terms.items():
        new = [0] * sig.ngens
        for pos, e in zip(positions, exps):
            new[pos] = e
        terms[tuple(new)] = coeff
    return terms


def ref_weight_lattice(F, G):
    n = len(F.variables)
    rows = []
    for poly, dcol in ((F, n), (G, n + 1)):
        for exps in poly.terms:
            row = {i: e for i, e in enumerate(exps) if e}
            row[dcol] = -1
            rows.append(row)
    out = []
    for vec in linalg.nullspace(rows, n + 2):
        w = vec[:n]
        if any(c != 0 for c in w):
            content = ref_content(w)
            out.append(tuple(Fraction(c) / content for c in w))
    return out


# -- seeded random elements -------------------------------------------------


def rand_coeff(rng):
    return Q(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 4)))


def rand_terms(rng, n, size=5, top=3):
    return {
        tuple(rng.randint(0, top) for _ in range(n)): rand_coeff(rng)
        for _ in range(rng.randint(0, size))
    }


def rand_poly(rng, variables, size=5, top=3):
    return MultiPoly(variables, rand_terms(rng, len(variables), size, top))


def rand_elem(rng, sig):
    return WeylElement(sig, rand_terms(rng, sig.ngens))


def pairs_in_one_space(rng):
    """(a, b, names) for a random polynomial or operator pair."""
    for _ in range(ROUNDS):
        if rng.random() < 0.5:
            variables = rng.choice(VARIABLES)
            yield rand_poly(rng, variables), rand_poly(rng, variables), variables
        else:
            sig = rng.choice(SIGS)
            yield rand_elem(rng, sig), rand_elem(rng, sig), sig.names


def space(elem):
    return elem.variables if isinstance(elem, MultiPoly) else elem.sig


def same(result, terms, like):
    """result is of like's class and space and has the given terms."""
    assert type(result) is type(like)
    assert space(result) == space(like)
    assert result.terms == terms


# -- the differential tests -------------------------------------------------


def test_additive_arithmetic_matches_reference():
    rng = random.Random(SEED)
    for a, b, names in pairs_in_one_space(rng):
        same(a + b, ref_add(a.terms, b.terms), a)
        same(a - b, ref_add(a.terms, ref_neg(b.terms)), a)
        same(-a, ref_neg(a.terms), a)
        same(a - a, {}, a)
        for k in SCALARS:
            const = ref_const(len(names), k)
            same(a + k, ref_add(a.terms, const), a)
            same(k + a, ref_add(a.terms, const), a)
            same(a - k, ref_add(a.terms, ref_neg(const)), a)
            same(k - a, ref_add(ref_neg(a.terms), const), a)


def test_scalar_products_match_reference():
    rng = random.Random(SEED + 1)
    for a, _, _ in pairs_in_one_space(rng):
        for k in SCALARS:
            same(a * k, ref_scaled(a.terms, k), a)
            same(k * a, ref_scaled(a.terms, k), a)


def test_degree_and_text_match_reference():
    rng = random.Random(SEED + 2)
    for a, _, names in pairs_in_one_space(rng):
        assert a.total_degree() == ref_total_degree(a.terms)
        assert a.is_zero() == (not a.terms)
        assert str(a) == ref_str(names, a.terms)
        assert repr(a) == f"{type(a).__name__}({ref_str(names, a.terms)})"


def test_constants_match_reference():
    for k in SCALARS:
        for variables in VARIABLES:
            same(MultiPoly.const(variables, k), ref_const(len(variables), k),
                 MultiPoly.zero(variables))
        for sig in SIGS:
            same(WeylElement.const(sig, k), ref_const(sig.ngens, k), WeylElement.zero(sig))


def test_normalisations_match_reference():
    rng = random.Random(SEED + 3)
    for a, _, _ in pairs_in_one_space(rng):
        if isinstance(a, WeylElement):
            prim = a.content_primitive()
            same(prim, ref_content_primitive(a.terms), a)
            assert all(type(c) is int for c in prim.terms.values())
        if a.terms:
            scaled = coprime_integers(a.terms)
            assert list(scaled) == list(a.terms)
            assert scaled == ref_scaled(a.terms, Fraction(1) / ref_content(a.terms.values()))
            assert all(type(c) is int for c in scaled.values())


def test_row_normalisation_keeps_a_primitive_integer_row():
    row = {0: 3, 4: -2, 7: 5}
    assert coprime_integers(row) is row
    assert coprime_integers({1: Q(3, 2), 2: Q(-9, 4)}) == {1: 2, 2: -3}
    assert coprime_integers({1: 0, 2: Q(-4, 1), 3: 6}) == {1: 0, 2: -2, 3: 3}


def test_from_poly_matches_reference():
    rng = random.Random(SEED + 4)
    for _ in range(ROUNDS):
        sig = rng.choice(SIGS)
        names = list(sig.names)
        rng.shuffle(names)
        variables = tuple(names[: rng.randint(0, len(names))])
        poly = rand_poly(rng, variables)
        same(WeylElement.from_poly(sig, poly), ref_from_poly(sig, poly), WeylElement.zero(sig))
    with pytest.raises(ValueError):
        WeylElement.from_poly(SIGS[0], MultiPoly.var(("x", "z"), "z"))


def test_weight_lattice_matches_reference():
    rng = random.Random(SEED + 5)
    nonzero = 0
    for _ in range(ROUNDS):
        variables = rng.choice(VARIABLES[1:])
        F = rand_poly(rng, variables, size=3)
        G = rand_poly(rng, variables, size=3)
        if F.is_zero() or G.is_zero():
            continue
        got = weight_lattice(F, G)
        assert got == ref_weight_lattice(F, G)
        assert all(type(c) is int for w in got for c in w)
        nonzero += bool(got)
    assert nonzero > ROUNDS // 4


# -- the boundary between the classes ---------------------------------------


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_polynomials_and_operators_never_mix(op):
    # the polynomial's variables are exactly the signature's names
    sig = AlgebraSignature.make(central=["x", "y"])
    p = MultiPoly.var(sig.names, "x")
    w = WeylElement.gen(sig, "x")
    assert p.variables == sig.names
    with pytest.raises(TypeError):
        op(p, w)
    with pytest.raises(TypeError):
        op(w, p)
    assert not p == w
    assert not w == p
    assert p != w


def test_spaces_must_agree():
    with pytest.raises(ValueError, match="variable mismatch"):
        MultiPoly.var(("x",), "x") + MultiPoly.var(("x", "y"), "x")
    with pytest.raises(SignatureMismatch):
        WeylElement.gen(SIGS[0], "x") - WeylElement.gen(SIGS[1], "x")

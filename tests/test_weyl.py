"""Normally ordered operator arithmetic."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun.rationals import Q
from mbfun.weyl import AlgebraSignature, MonomialOrder, WeylElement

SIG = AlgebraSignature.make(pairs=[("x", "dx"), ("y", "dy")], central=["s"])


def gen(name):
    return WeylElement.gen(SIG, name)


def elements():
    # exponent order: x, y, s, dx, dy
    coeff = st.integers(-3, 3).map(Q)
    exps = st.tuples(*[st.integers(0, 2)] * 5)
    return st.dictionaries(exps, coeff, max_size=3).map(
        lambda d: WeylElement(SIG, {e: c for e, c in d.items() if c != 0})
    )


def test_canonical_commutator():
    x, dx = gen("x"), gen("dx")
    assert dx * x - x * dx == WeylElement.const(SIG, 1)
    assert dx * x == x * dx + 1


def test_disjoint_pairs_commute():
    for a, b in [("dx", "y"), ("dy", "dx"), ("s", "dx")]:
        assert (gen(a) * gen(b) - gen(b) * gen(a)).is_zero()


def test_leibniz_contraction():
    x, dx = gen("x"), gen("dx")
    # dx^2 x^2 = x^2 dx^2 + 4 x dx + 2
    assert dx * dx * x * x == x * x * dx * dx + 4 * (x * dx) + 2


def test_homogenized_leibniz_contraction():
    # [dx, x] = h^2, so each contraction of dx^b x^a carries h^2
    sig_h = SIG.homogenized()
    x, dx, h = (WeylElement.gen(sig_h, n) for n in ("x", "dx", "h_"))
    assert dx * dx * dx * x * x == (
        x * x * dx * dx * dx + 6 * (h * h * x * dx * dx) + 6 * (h * h * h * h * dx)
    )


def test_content_primitive_normalizes_sign():
    e = Q(-2, 3) * gen("x") - Q(4, 3) * gen("dx")
    prim = e.content_primitive()
    assert prim == gen("x") + 2 * gen("dx")


def test_coord_part_poly_rejects_derivatives():
    p = (gen("x") * gen("s") + 2).coord_part_poly()
    assert p.degree_in("x") == 1
    try:
        (gen("dx")).coord_part_poly()
    except ValueError:
        pass
    else:
        raise AssertionError("derivative term must not convert to a polynomial")


@given(elements(), elements(), elements())
@settings(max_examples=40, deadline=None)
def test_product_is_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_commutator_antisymmetry(a, b):
    assert a * b - b * a == -(b * a - a * b)


def test_weight_order_admissibility():
    good = MonomialOrder.weight(SIG, {"x": -1, "dx": 1})
    good.check_admissible(SIG)
    try:
        MonomialOrder.weight(SIG, {"x": -1})
    except ValueError:
        pass
    else:
        raise AssertionError("u(x) + u(dx) < 0 must be rejected")


# The Briancon-Maisonobe algebra: s = -dt*t, so dt s = (s - 1) dt
SHIFT_SIG = AlgebraSignature.make(pairs=[("x", "dx")], shift_pairs=[("s", "dt")])
T_SIG = AlgebraSignature.make(pairs=[("t", "dt")])


@lru_cache(maxsize=None)
def in_t_algebra(a, b):
    """s^a dt^b with s = -dt*t, in D<t, dt>."""
    t, dt = (WeylElement.gen(T_SIG, n) for n in ("t", "dt"))
    out = WeylElement.const(T_SIG, 1)
    for _ in range(a):
        out = out * (-(dt * t))
    for _ in range(b):
        out = out * dt
    return out


def test_shift_pair_signature_layout():
    assert SHIFT_SIG.names == ("x", "s", "dx", "dt")
    assert (SHIFT_SIG.pairs, SHIFT_SIG.shift_pairs) == (((0, 2),), ((1, 3),))


def test_shift_product_matches_the_t_algebra():
    # every product s^a1 dt^b1 * s^a2 dt^b2 with exponents <= 4, mapped by
    # s -> -dt*t, equals the product of the images in D<t, dt>
    def mono(a, b):
        return WeylElement(SHIFT_SIG, {(0, a, 0, b): Q(1)})

    for a1, b1, a2, b2 in product(range(5), repeat=4):
        image = WeylElement.zero(T_SIG)
        for (_, a, _, b), c in (mono(a1, b1) * mono(a2, b2)).terms.items():
            image = image + c * in_t_algebra(a, b)
        assert image == in_t_algebra(a1, b1) * in_t_algebra(a2, b2)


def test_shift_relation():
    s, dt, x, dx = (WeylElement.gen(SHIFT_SIG, n) for n in ("s", "dt", "x", "dx"))
    assert dt * s == s * dt - dt
    assert dt * x == x * dt and dx * s == s * dx


def shift_elements():
    # exponent order: x, s, dx, dt
    coeff = st.integers(-3, 3).map(Q)
    exps = st.tuples(*[st.integers(0, 2)] * 4)
    return st.dictionaries(exps, coeff, max_size=3).map(
        lambda d: WeylElement(SHIFT_SIG, {e: c for e, c in d.items() if c != 0})
    )


@given(shift_elements(), shift_elements(), shift_elements())
@settings(max_examples=40, deadline=None)
def test_shift_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_shift_pair_weight_admissibility():
    MonomialOrder.weight(SHIFT_SIG, {"dt": 1}).check_admissible(SHIFT_SIG)
    with pytest.raises(ValueError, match="u\\(s\\) < 0"):
        MonomialOrder.weight(SHIFT_SIG, {"s": -1, "dt": 1})


def test_shift_pairs_have_no_homogenization():
    with pytest.raises(ValueError, match="shift pairs"):
        SHIFT_SIG.homogenized()

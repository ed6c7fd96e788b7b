"""Normally ordered operator arithmetic."""

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
    assert dx.commutator(x) == WeylElement.const(SIG, 1)
    assert dx * x == x * dx + 1


def test_disjoint_pairs_commute():
    assert gen("dx").commutator(gen("y")) .is_zero()
    assert gen("dy").commutator(gen("dx")).is_zero()
    assert gen("s").commutator(gen("dx")).is_zero()


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
    assert a.commutator(b) == -(b.commutator(a))


def test_weight_order_admissibility():
    good = MonomialOrder.weight(SIG, {"x": -1, "dx": 1})
    good.check_admissible(SIG)
    try:
        MonomialOrder.weight(SIG, {"x": -1})
    except ValueError:
        pass
    else:
        raise AssertionError("u(x) + u(dx) < 0 must be rejected")

"""Laurent-module sections and the brute-force functional-equation oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun.bfunction import BFunction
from mbfun.errors import CertificationError
from mbfun.oracle import (
    minimal_b_search,
    minimize_by_oracle,
    reject_maximal_divisors,
    verify_functional_equation,
    weight_lattice,
)
from mbfun.multipoly import MultiPoly
from mbfun.parser import parse_poly
from mbfun.rationals import Q
from mbfun.sections import (
    DeltaContext,
    MeroContext,
    apply_delta_operator,
    apply_operator,
    base_section,
    least_monic,
    operator_columns,
    solve,
)
from mbfun.weyl import WeylElement


def poly(text, variables=None):
    return parse_poly(text, variables)


def b_of(roots):
    return BFunction.from_roots({Q(num, den): mult for (num, den), mult in roots})


ONE_X = poly("1", ("x",))
XY = ("x", "y")
DELTA_PAIRS = [("x", "y+1"), ("x*y", "x+y"), ("x^2-y^2", "y+1"), ("x^3", "y^2")]


def cancels_graph_factor(sec):
    """Zero modulo O[t][1/G] by cancelling tG-F from numerator and
    denominator while it divides the numerator exactly."""
    num, a = sec.numerator, sec.pows[0]
    while a > 0 and not num.is_zero():
        quo, rem = num.divmod_single(sec.ctx.P)
        if not rem.is_zero():
            break
        num, a = quo, a - 1
    return a <= 0 or num.is_zero()


def random_poly(rng, ring):
    terms = {
        tuple(rng.randint(0, 2) for _ in ring): Q(rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(rng.randint(1, 3))
    }
    return MultiPoly(ring, terms)


def delta_operators():
    # exponent layout: (x, y, t, dx, dy, dt)
    term = st.tuples(
        st.tuples(*[st.integers(0, 1)] * 3, *[st.integers(0, 2)] * 3),
        st.integers(-2, 2),
    )
    return st.lists(term, min_size=1, max_size=3)


class TestSections:
    def test_base_section_carries_integer_shifts(self):
        ctx = MeroContext(poly("x"), poly("1", ("x",)))
        v = base_section(ctx, 0, shift=2)
        # f^{s+2} = x^2 f^s
        w = base_section(ctx, 0).scaled(poly("x^2", ("x",)).extend_to(ctx.ring))
        assert v.section_eq(w)

    def test_derivative_of_fs(self):
        # dx (x^s) = s x^{s-1}: numerator s, pows (1, 0)
        ctx = MeroContext(poly("x"), ONE_X)
        dx = WeylElement.gen(ctx.sig, "dx")
        v = apply_operator(dx, base_section(ctx, 0))
        s_num = poly("s", ctx.ring).extend_to(ctx.ring)
        expected = base_section(ctx, 0).scaled(s_num)
        # multiply expected by x^{-1}: compare x * v against s * f^s
        assert v.scaled(poly("x", ctx.ring).extend_to(ctx.ring)).section_eq(expected)

    def test_delta_sections_from_different_contexts_do_not_add(self):
        F, G = poly("x"), ONE_X
        one, other = DeltaContext(F, G, 1), DeltaContext(F, G, 1)
        assert (one.generator() + one.generator()).pows[0] == 1
        with pytest.raises(ValueError, match="different contexts"):
            one.generator() + other.generator()

    def test_mero_derivative_quotient_rule(self):
        # dx (x/y)^s has numerator s*y over pows (1, 1) after clearing
        ctx = MeroContext(poly("x", ("x", "y")), poly("y", ("x", "y")))
        dx = WeylElement.gen(ctx.sig, "dx")
        dy = WeylElement.gen(ctx.sig, "dy")
        v = apply_operator(dx, base_section(ctx, 0))
        assert not v.is_zero()
        # y dx f^s - (-x dy f^s) = (y dx + x dy) f^s = 0 for f = x/y
        euler = (
            WeylElement.gen(ctx.sig, "y") * dy + WeylElement.gen(ctx.sig, "x") * dx
        )
        assert apply_operator(euler, base_section(ctx, 0)).is_zero()

    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_operator_action_is_multiplicative(self, terms_p, terms_q):
        # exponent layout: (x, s, dx) for F = x^2, G = 1
        ctx = MeroContext(poly("x^2"), ONE_X)
        P = WeylElement(ctx.sig, {e: Q(c) for e, c in terms_p if c})
        Qop = WeylElement(ctx.sig, {e: Q(c) for e, c in terms_q if c})
        v = base_section(ctx, 0)
        lhs = apply_operator(P * Qop, v)
        rhs = apply_operator(P, apply_operator(Qop, v))
        assert lhs.section_eq(rhs)

    @given(
        st.sampled_from(DELTA_PAIRS),
        st.integers(0, 2),
        delta_operators(),
        delta_operators(),
    )
    @settings(max_examples=15, deadline=None)
    def test_delta_operator_action_is_multiplicative(self, pair, m, terms_p, terms_q):
        ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
        P = WeylElement(ctx.sig, {e: Q(c) for e, c in terms_p if c})
        Qop = WeylElement(ctx.sig, {e: Q(c) for e, c in terms_q if c})
        sigma = ctx.generator()
        lhs = apply_delta_operator(P * Qop, sigma)
        rhs = apply_delta_operator(P, apply_delta_operator(Qop, sigma))
        pows = tuple(map(max, lhs.pows, rhs.pows))
        assert lhs.cleared_numerator(pows) == rhs.cleared_numerator(pows)

    @pytest.mark.parametrize("pair", DELTA_PAIRS)
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_derivations_commute_on_delta_sections(self, pair, m):
        # the operator loop applies derivations in signature order, the
        # column tower in its own order; both rely on this identity
        ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
        v = ctx.generator().derivative("y")
        for x in ("x", "y"):
            xt = v.derivative(x).derivative("t")
            tx = v.derivative("t").derivative(x)
            assert xt == tx
            assert xt.pows == (v.pows[0] + 2, v.pows[1] + 1)

    @pytest.mark.parametrize("pair", DELTA_PAIRS)
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_delta_is_zero_matches_division_loop(self, pair, m):
        rng = random.Random(20 * m + DELTA_PAIRS.index(pair))
        ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
        sigma = ctx.generator()
        sections = [sigma] + [sigma.derivative(v) for v in ("x", "y", "t")]
        sections.append(sections[1].derivative("t"))
        for sec in sections:
            assert not sec.is_zero() and not cancels_graph_factor(sec)
            a = sec.pows[0]
            for j in range(a + 2):
                scaled = sec.scaled(random_poly(rng, ctx.ring) * ctx.power(0, j))
                assert scaled.is_zero() == cancels_graph_factor(scaled)
                if j >= a:
                    assert scaled.is_zero()

    def test_operator_columns_match_applied_monomials(self):
        ctx = DeltaContext(poly("x*y", XY), poly("x+y", XY), 1)
        sigma = ctx.generator()
        columns = dict(operator_columns(sigma, 2, 0))
        assert len(columns) == 28   # monomials of degree <= 2 in 6 generators
        for exps, sec in columns.items():
            assert sec == apply_delta_operator(WeylElement(ctx.sig, {exps: Q(1)}), sigma)
        mero = MeroContext(poly("x^2", XY), poly("y", XY))
        keys = [key for key, _ in operator_columns(base_section(mero, 1), 1, 1)]
        assert keys == [
            (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0),
            (0, 1, 1, 0, 0), (1, 0, 0, 0, 0), (1, 0, 1, 0, 0),
            (0, 0, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 1, 0),
        ]


def combination(columns, values):
    total = None
    for col, c in zip(columns, values):
        part = col.scaled(MultiPoly.const(col.ctx.ring, c))
        total = part if total is None else total + part
    return total


def equation_columns(ctx, m, deg):
    return [sec for _, sec in operator_columns(base_section(ctx, m, shift=1), deg, deg)]


QUASI_HOMOGENEOUS = [("x^2", "1"), ("x^2", "y"), ("x^3", "y^2"), ("x^2+y^3", "1"), ("x^2+y^2", "x")]
# (s+1)(s+1/2) solves x^2 and x^2/y, (s+1)^2 solves (x^2+y^2)/x, at m=1
B_CANDIDATES = [
    [((-1, 1), 1)],
    [((-1, 1), 1), ((-1, 2), 1)],
    [((-1, 1), 2)],
    [((-1, 1), 1), ((-1, 3), 1), ((-2, 3), 1)],
]


class TestSolve:
    def test_laurent_solution_reapplies(self):
        # (s+1)(s+1/2) x^(2s) = P x^(2s+2) with P of degree 2
        ctx = MeroContext(poly("x^2"), ONE_X)
        rhs = base_section(ctx, 0).scaled(poly("(s+1)*(s+1/2)", ctx.ring))
        columns = equation_columns(ctx, 0, 2)
        values = solve(rhs, columns)
        assert values is not None and len(values) == len(columns)
        assert combination(columns, values).section_eq(rhs)
        assert solve(base_section(ctx, 0), columns) is None

    def test_delta_solution_reapplies_mod_holomorphic(self):
        ctx = DeltaContext(poly("x^3", XY), poly("y^2", XY), 1)
        columns = [sec for _, sec in sorted(operator_columns(ctx.generator(), 2, 0))]
        rhs = combination(columns[3:6], [Q(2), Q(-1), Q(1, 3)])
        values = solve(rhs, columns)
        assert values is not None
        diff = combination(columns, values) + rhs.scaled(MultiPoly.const(ctx.ring, -1))
        assert diff.is_zero()

    def test_least_monic_relation_holds(self):
        # the engine's relation for sigma_0 of x^2: p(theta) = theta^2 + theta/2
        ctx = DeltaContext(poly("x^2"), ONE_X, 0)
        sig, sigma = ctx.sig, ctx.generator()
        theta = WeylElement.gen(sig, "t") * WeylElement.gen(sig, "dt")
        powers = [sigma]
        for _ in range(4):
            powers.append(apply_delta_operator(theta, powers[-1]))
        t, dt = sig.index("t"), sig.index("dt")
        columns = [
            sec for exps, sec in sorted(operator_columns(sigma, 4, 0))
            if exps[dt] - exps[t] <= -1
        ]
        coeffs, q = least_monic(powers, columns)
        d = len(coeffs) - 1
        assert coeffs == [0, Q(1, 2), 1]
        diff = combination(powers, coeffs) + combination(columns, [-c for c in q])
        assert diff.is_zero()
        assert least_monic(powers, columns, min_deg=d) == (coeffs, q)
        assert least_monic(powers[:d], columns) is None

    @pytest.mark.parametrize("pair", QUASI_HOMOGENEOUS)
    def test_weight_pruning_keeps_solvability(self, pair):
        F, G = poly(pair[0], XY), poly(pair[1], XY)
        ctx = MeroContext(F, G)
        lattice = weight_lattice(F, G)
        assert lattice
        columns = equation_columns(ctx, 1, 3)
        for roots in B_CANDIDATES:
            rhs = base_section(ctx, 1).scaled(b_of(roots).poly.extend_to(ctx.ring))
            pruned, full = solve(rhs, columns, lattice), solve(rhs, columns)
            assert (pruned is None) == (full is None), roots
            if pruned is not None:
                assert combination(columns, pruned).section_eq(rhs)


class TestOracle:
    def test_weight_lattice_sees_joint_homogeneity(self):
        lattice = weight_lattice(poly("x^3", ("x", "y")), poly("y^2", ("x", "y")))
        assert lattice  # x^3 and y^2 are monomials, always quasi-homogeneous

    def test_certifies_classical_witness(self):
        b = b_of([((-1, 1), 1)])
        witness = verify_functional_equation(b, poly("x"), ONE_X, 0, N=1, deg=1)
        assert witness is not None and set(witness) == {1}

    def test_certifies_x_squared_and_rejects_divisors(self):
        F = poly("x^2")
        b = b_of([((-1, 1), 1), ((-1, 2), 1)])
        assert verify_functional_equation(b, F, ONE_X, 0, N=1, deg=2) is not None
        assert reject_maximal_divisors(b, F, ONE_X, 0, N=1, deg=4)

    def test_minimization_drops_superfluous_roots(self):
        # on the battery the engine value is already minimal; here two of
        # the four roots, -2 and -3/2, are not needed by the equation
        F = poly("x^2")
        b = b_of([((-1, 1), 1), ((-1, 2), 1), ((-2, 1), 1), ((-3, 2), 1)])
        assert str(minimize_by_oracle(b, F, ONE_X, 0, N=1, deg=2)) == "(s + 1)*(s + 1/2)"
        assert not reject_maximal_divisors(b, F, ONE_X, 0, N=1, deg=2)

    def test_rejects_wrong_candidate(self):
        F = poly("x^2")
        too_small = b_of([((-1, 1), 1)])
        assert verify_functional_equation(too_small, F, ONE_X, 0, N=2, deg=4) is None

    def test_meromorphic_pair(self):
        F, G = poly("x", ("x", "y")), poly("y", ("x", "y"))
        b = b_of([((-1, 1), 1)])
        witness = verify_functional_equation(b, F, G, m=1, N=2, deg=3)
        assert witness is not None

    def test_witness_recheck_guards_solver(self):
        # a corrupted witness must be caught by re-application
        from mbfun.oracle import _recheck_witness

        ctx = MeroContext(poly("x"), ONE_X)
        b = b_of([((-1, 1), 1)])
        bogus = {1: WeylElement.gen(ctx.sig, "x")}
        with pytest.raises(CertificationError):
            _recheck_witness(b, 0, ctx, bogus)

    def test_minimal_search_matches_direct_answer(self):
        ctx = MeroContext(poly("x^2"), ONE_X)
        found = minimal_b_search(
            ctx, base_section(ctx, 0), [base_section(ctx, 0, shift=1)], 2, 2, 4
        )
        assert found is not None
        b, ops = found
        assert str(b) == "(s + 1)*(s + 1/2)"
        assert len(ops) == 1

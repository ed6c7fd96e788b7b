"""Laurent-module sections and the brute-force functional-equation oracle."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun import linalg
from mbfun.bfunction import S_VAR, BFunction
from mbfun.errors import CapabilityError, CertificationError
from mbfun.merobf import b_section_along_t
from mbfun.oracle import (
    minimal_b_search,
    minimize_by_oracle,
    verify_functional_equation,
    weight_lattice,
)
from mbfun.multipoly import MultiPoly, unify
from mbfun.parser import parse_poly
from mbfun.rationals import Q
from mbfun.sections import (
    U_VAR,
    DeltaContext,
    MeroContext,
    _Context,
    _Section,
    apply_delta_operator,
    apply_operator,
    base_section,
    least_monic,
    operator_columns,
    poly_weight,
)
from mbfun.weyl import WeylElement
from bfunction_helpers import b_from_roots, theta_to_s
from column_helpers import (
    as_columns,
    engine_keep,
    materialized,
    passing_shifts,
    sections_of,
    weight_rule,
)


def poly(text, variables=None):
    return parse_poly(text, variables)


def solve(rhs, columns):
    """c with sum_i c_i columns[i] = rhs for sections, or None:
    least_monic at degree 0."""
    found = least_monic([rhs], as_columns(columns))
    return None if found is None else found[1]


def b_of(roots):
    return b_from_roots({Q(num, den): mult for (num, den), mult in roots})


ONE_X = poly("1", ("x",))
XY = ("x", "y")
DELTA_PAIRS = [("x", "y+1"), ("x*y", "x+y"), ("x^2-y^2", "y+1"), ("x^3", "y^2")]


class GraphContext(_Context):
    """The delta module of a DeltaContext in graph form, the reference for
    its polar parts: a section is h (tG-F)^-a G^-b with h over (x, t),
    factors (tG-F, G), run by the same quotient rule, and is zero modulo
    O[t][1/G] iff (tG-F)^a divides h."""

    def __init__(self, delta):
        self.sig, self.m = delta.sig, delta.m
        self.ring = delta.xvars + ("t",)
        G = delta.G.extend_to(self.ring)
        self.P = MultiPoly.var(self.ring, "t") * G - delta.F.extend_to(self.ring)
        raises = {x: (0, 1) for x in delta.xvars}
        raises["t"] = (0,)
        self._set_factors((self.P, G), raises)

    def exponents(self, pows):
        return tuple(Q(-p) for p in pows)

    def generator(self):
        """sigma_m = G^{1-m} / (tG - F)."""
        if self.m >= 1:
            return _Section(self, MultiPoly.const(self.ring, 1), (1, self.m - 1))
        return _Section(self, self.factors[1], (1, 0))


def to_graph(sec, graph):
    """The polar part sum_j n_j u^j G^-b as sum_j n_j (tG-F)^(a-j) over
    (tG-F)^a G^b, with a the largest j."""
    a = sec.numerator.degree_in(U_VAR)
    num = MultiPoly.zero(graph.ring)
    for exps, c in sec.numerator.terms.items():
        num = num + MultiPoly(graph.ring, {exps[:-1] + (0,): c}) * graph.power(0, a - exps[-1])
    return _Section(graph, num, (a, sec.pows[0]))


def cancels_graph_factor(sec):
    """Zero modulo O[t][1/G] by cancelling tG-F from numerator and
    denominator of a graph-form section while it divides the numerator
    exactly."""
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

    def test_negative_shift_is_refused(self):
        ctx = MeroContext(poly("x"), poly("1", ("x",)))
        with pytest.raises(ValueError, match="negative power"):
            base_section(ctx, 0, shift=-1)

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
        sigma = one.generator()
        assert sigma + sigma == sigma.scaled(MultiPoly.const(one.ring, 2))
        assert (sigma + sigma).numerator.degree_in(U_VAR) == 1
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

    @given(st.sampled_from(DELTA_PAIRS), st.integers(0, 2), delta_operators())
    @settings(max_examples=40, deadline=None)
    def test_delta_action_matches_graph_form(self, pair, m, terms):
        ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
        graph = GraphContext(ctx)
        P = WeylElement(ctx.sig, {e: Q(c) for e, c in terms if c})
        got = apply_delta_operator(P, ctx.generator())
        want = apply_delta_operator(P, graph.generator())
        assert all(e[-1] >= 1 for e in got.numerator.terms)
        assert got.is_zero() == cancels_graph_factor(want)
        got_image, want_image = reference_images([to_graph(got, graph), want])
        assert got_image == want_image

    def test_delta_context_reserves_u(self):
        names = ("x", U_VAR)
        x, u = MultiPoly.var(names, "x"), MultiPoly.var(names, U_VAR)
        for F, G in ((u, x), (x, u + 1)):
            with pytest.raises(ValueError, match="reserved"):
                DeltaContext(F, G, 0)

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
            # one more pole along G, two more along tG-F
            assert xt.pows == (v.pows[0] + 1,)
            assert xt.numerator.degree_in(U_VAR) == v.numerator.degree_in(U_VAR) + 2

    @pytest.mark.parametrize("pair", DELTA_PAIRS)
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_delta_is_zero_matches_division_loop(self, pair, m):
        # multiplying by (tG-F)^j kills a section of pole order a iff j >= a
        rng = random.Random(20 * m + DELTA_PAIRS.index(pair))
        ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
        graph = GraphContext(ctx)
        sigma = ctx.generator()
        sections = [sigma] + [sigma.derivative(v) for v in ("x", "y", "t")]
        sections.append(sections[1].derivative("t"))
        for sec in sections:
            assert not sec.is_zero() and not cancels_graph_factor(to_graph(sec, graph))
            a = sec.numerator.degree_in(U_VAR)
            for j in range(a + 2):
                factor = random_poly(rng, graph.ring) * graph.power(0, j)
                scaled = apply_delta_operator(WeylElement.from_poly(ctx.sig, factor), sec)
                assert scaled.is_zero() == cancels_graph_factor(to_graph(sec, graph).scaled(factor))
                if j >= a:
                    assert scaled.is_zero()

    def test_operator_columns_match_applied_monomials(self):
        ctx = DeltaContext(poly("x*y", XY), poly("x+y", XY), 1)
        sigma = ctx.generator()
        columns = dict(materialized(operator_columns(sigma, 2)))
        assert len(columns) == 28   # monomials of degree <= 2 in 6 generators
        for exps, sec in columns.items():
            assert sec == apply_delta_operator(WeylElement(ctx.sig, {exps: Q(1)}), sigma)
        mero = MeroContext(poly("x^2", XY), poly("y", XY))
        keys = [key for key, _, _ in operator_columns(base_section(mero, 1), 1)]
        assert keys == [
            (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0),
            (0, 1, 1, 0, 0), (1, 0, 0, 0, 0), (1, 0, 1, 0, 0),
            (0, 0, 0, 0, 1), (0, 0, 1, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 1, 0),
        ]


def tower_chain(beta):
    """beta and the derivatives below it that the tower builds it from."""
    chain = set()
    while any(beta):
        chain.add(beta)
        i = next(idx for idx, e in enumerate(beta) if e)
        beta = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
    return chain


def shift(key):
    """alpha - beta of an operator key alpha + (j,) + beta or alpha + beta,
    over the coordinates that carry a derivation."""
    n = len(key) // 2
    return tuple(a - b for a, b in zip(key[:n], key[len(key) - n:]))


def columns_within(base, deg, max_j, keep=None):
    """operator_columns with each central exponent <= max_j, as (key,
    section)."""
    n = len(base.ctx.sig.pairs)
    return [
        (key, sec)
        for key, sec in materialized(operator_columns(base, deg, passing_shifts(base, deg, keep)))
        if all(j <= max_j for j in key[n:len(key) - n])
    ]


def plain(columns):
    """(key, numerator, pows) of (key, section) columns, which compare
    across contexts."""
    return [(key, sec.numerator, sec.pows) for key, sec in columns]


@pytest.mark.parametrize("module", ["laurent", "delta"])
def test_operator_columns_build_only_what_they_yield(module, monkeypatch):
    # derivatives only toward the beta of kept columns, each built once,
    # and one times call per (beta, head) that has a head (t^k in the
    # delta module); the context keeps them, so a second call builds none
    F, G = poly("x^3", XY), poly("y^2", XY)
    lattice = weight_lattice(F, G)

    def fresh():
        if module == "laurent":
            return base_section(MeroContext(F, G), 1, shift=1), 3
        return DeltaContext(F, G, 1).generator(), 4

    base, deg = fresh()
    ctx = base.ctx
    if module == "laurent":
        rule = weight_rule(base, base_section(ctx, 1), lattice)
    else:
        rule = engine_keep(ctx)

    full = materialized(operator_columns(base, deg))
    shifts = sorted({shift(key) for key, _ in full})
    chosen = set(random.Random(module).sample(shifts, 12))
    section_type = type(base)
    calls = Counter()
    times, derivative = section_type.times, _Section.derivative

    def counted_times(self, *args):
        calls["times"] += 1
        return times(self, *args)

    def counted_derivative(self, var):
        calls["derivative"] += 1
        return derivative(self, var)

    monkeypatch.setattr(section_type, "times", counted_times)
    monkeypatch.setattr(_Section, "derivative", counted_derivative)
    n = len(ctx.sig.pairs)
    for keep in (rule, chosen.__contains__, lambda delta: False):
        base, deg = fresh()
        for again in (False, True):
            calls.clear()
            got = list(operator_columns(base, deg, passing_shifts(base, deg, keep)))
            built = Counter(calls)
            want = [(key, sec) for key, sec in full if keep(shift(key))]
            assert plain(materialized(got)) == plain(want)
            assert len(got) < len(full)
            heads = {(key[-n:], base.split(key[:-n])[0]) for key, _, _ in got}
            chain = set().union(*(tower_chain(key[-n:]) for key, _, _ in got))
            if again:
                assert built == Counter()
            else:
                assert built["times"] == len([h for h in heads if any(h[1])])
                assert built["derivative"] == len(chain)
            assert module == "delta" or built["times"] == 0


def combination(columns, values):
    total = None
    for col, c in zip(columns, values):
        part = col.scaled(MultiPoly.const(col.ctx.ring, c))
        total = part if total is None else total + part
    return total


def equation_columns(ctx, m, deg):
    return [sec for _, sec in materialized(operator_columns(base_section(ctx, m, shift=1), deg))]


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
        columns = [sec for _, sec in sorted(materialized(operator_columns(ctx.generator(), 2)))]
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
            (elem, shift) for exps, elem, shift in sorted(operator_columns(sigma, 4))
            if exps[dt] - exps[t] <= -1
        ]
        coeffs, q = least_monic(powers, columns)
        d = len(coeffs) - 1
        assert coeffs == [0, Q(1, 2), 1]
        diff = combination(powers, coeffs) + combination(sections_of(columns), [-c for c in q])
        assert diff.is_zero()
        assert least_monic(powers, columns, min_deg=d) == (coeffs, q)
        assert least_monic(powers[:d], columns) is None
        # the powers are pulled one at a time, none above the least d
        pulled = []

        def lazy(upto):
            for power in powers[:upto]:
                pulled.append(power)
                yield power

        assert least_monic(lazy(len(powers)), columns) == (coeffs, q)
        assert pulled == powers[:d + 1]
        pulled.clear()
        assert least_monic(lazy(d), columns) is None and pulled == powers[:d]

    @pytest.mark.parametrize("pair", QUASI_HOMOGENEOUS)
    def test_weight_pruning_keeps_solvability(self, pair):
        # the columns the oracle's weight rule builds solve what all do,
        # as the reference solves all and drops the wrong weights after
        F, G = poly(pair[0], XY), poly(pair[1], XY)
        ctx = MeroContext(F, G)
        lattice = weight_lattice(F, G)
        assert lattice
        base = base_section(ctx, 1, shift=1)
        columns = equation_columns(ctx, 1, 3)
        for roots in B_CANDIDATES:
            rhs = base_section(ctx, 1).scaled(b_of(roots).poly.extend_to(ctx.ring))
            keep = weight_rule(base, rhs, lattice)
            chosen = operator_columns(base, 3, passing_shifts(base, 3, keep))
            built = [sec for _, sec in materialized(chosen)]
            assert len(built) < len(columns)
            pruned, full = solve(rhs, built), solve(rhs, columns)
            assert (pruned is None) == (full is None), roots
            mask = [keep(shift(key)) for key, _, _ in operator_columns(base, 3)]
            assert_same_values(spread(pruned, mask), reference_solve(rhs, columns, lattice))
            if pruned is not None:
                assert combination(built, pruned).section_eq(rhs)


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
        assert minimize_by_oracle(b, F, ONE_X, 0, N=1, deg=4).poly == b.poly

    def test_minimization_drops_superfluous_roots(self):
        # on the battery the engine value is already minimal; here two of
        # the four roots, -2 and -3/2, are not needed by the equation
        F = poly("x^2")
        b = b_of([((-1, 1), 1), ((-1, 2), 1), ((-2, 1), 1), ((-3, 2), 1)])
        smaller = minimize_by_oracle(b, F, ONE_X, 0, N=1, deg=2)
        assert str(smaller) == "(s + 1)*(s + 1/2)"
        assert smaller.poly != b.poly

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
        lhs = base_section(ctx, 0).scaled(b.poly.extend_to(ctx.ring))
        bogus = {1: WeylElement.gen(ctx.sig, "x")}
        with pytest.raises(CertificationError):
            _recheck_witness(lhs, {1: base_section(ctx, 0, shift=1)}, bogus)

    def test_recheck_does_not_read_the_towers(self):
        # the search builds its columns on the derivatives kept in the
        # target's tower; a wrong one planted there must not also serve
        # the re-application, which derives from the target itself
        ctx = MeroContext(poly("x^2"), ONE_X)
        v0, target = base_section(ctx, 0), base_section(ctx, 0, shift=1)
        assert minimal_b_search(ctx, v0, [target], 2, 4) is not None
        ctx = MeroContext(poly("x^2"), ONE_X)
        v0, target = base_section(ctx, 0), base_section(ctx, 0, shift=1)
        wrong = target.derivative("x").scaled(MultiPoly.const(ctx.ring, 2))
        ctx.tower(target)[(1,), (0, 0)] = wrong
        with pytest.raises(CertificationError):
            minimal_b_search(ctx, v0, [target], 2, 4)

    def test_minimal_search_matches_direct_answer(self):
        ctx = MeroContext(poly("x^2"), ONE_X)
        found = minimal_b_search(
            ctx, base_section(ctx, 0), [base_section(ctx, 0, shift=1)], 2, 4
        )
        assert found is not None
        b, ops = found
        assert str(b) == "(s + 1)*(s + 1/2)"
        assert len(ops) == 1


def reference_minimize(b, F, G, m, N, deg):
    """The root-stripping loop that minimization used before the joint
    least-degree search, kept as the reference: drop the first root r, in
    sorted order, whose b/(s-r) still admits the equation at the full
    bounds, until no such root is left."""
    if b.roots is None or b.degree() <= 1:
        return b
    ctx = MeroContext(*unify(F, G))
    lattice = weight_lattice(ctx.F, ctx.G)
    v0 = base_section(ctx, m)
    columns = []
    for k in range(1, N + 1):
        target = base_section(ctx, m, shift=k)
        shifts = passing_shifts(target, deg, weight_rule(target, v0, lattice))
        columns += [sec for _, sec in materialized(operator_columns(target, deg, shifts))]
    s = MultiPoly.var((S_VAR,), S_VAR)

    def passes(cand):
        lhs = v0.scaled(cand.poly.extend_to(ctx.ring))
        return solve(lhs, columns) is not None

    while b.degree() > 1:
        for root, _ in b.sorted_roots():
            quotient, _ = b.poly.divmod_single(s - MultiPoly.const((S_VAR,), root))
            cand = BFunction.from_poly(quotient)
            if passes(cand):
                b = cand
                break
        else:
            break
    return b


# (F, G, variables, b_{f,m} roots, degree bounds at which b_{f,m} admits the
# equation); each case is checked at m = 0 and m = 1 when G is not 1
MINIMIZATION_CASES = [
    ("x^2", "1", ("x",), [(-1, 1), (-1, 2)], (2, 3)),
    ("x^3", "1", ("x",), [(-1, 1), (-1, 3), (-2, 3)], (3,)),
    ("x^2+y^2", "1", XY, [(-1, 1), (-1, 1)], (2, 3)),
    ("x", "y", XY, [(-1, 1)], (2, 3)),
    ("x^2", "y", XY, [(-1, 1), (-1, 2)], (3,)),
]


@pytest.mark.parametrize("case", MINIMIZATION_CASES, ids=lambda c: f"{c[0]}/{c[1]}")
def test_minimization_matches_root_stripping(case):
    text_f, text_g, names, b_roots, degs = case
    F, G = poly(text_f, names), poly(text_g, names)
    ms = (0,) if text_g == "1" else (0, 1)
    for m in ms:
        for trial in range(4):
            rng = random.Random(f"{text_f}/{text_g}/{m}/{trial}")
            roots = [Q(num, den) for num, den in b_roots]
            roots += [Q(-rng.randint(1, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 2))]
            b = b_from_roots(Counter(roots))
            N, deg = rng.randint(1, 2), rng.choice(degs)
            assert verify_functional_equation(b, F, G, m, N, deg) is not None
            want = reference_minimize(b, F, G, m, N, deg)
            got = minimize_by_oracle(b, F, G, m, N, deg)
            assert got.poly == want.poly, (text_f, text_g, m, str(b), N, deg)


# -- images computed once, against imaging every column per degree ---------


def reference_images(sections):
    """Every section's numerator over the common denominator, reduced
    modulo (tG-F)^a in the graph form of the delta module: what solve
    imaged on each call before images were cached."""
    pows = tuple(max(p) for p in zip(*(sec.pows for sec in sections)))
    images = [sec.cleared_numerator(pows) for sec in sections]
    ctx = sections[0].ctx
    if isinstance(ctx, GraphContext):
        modulus = ctx.P ** pows[0]
        images = [image.divmod_single(modulus)[1] for image in images]
    return images


def image_weight(image, w):
    weights = {sum(wi * e for wi, e in zip(w, exps)) for exps in image.terms}
    return weights.pop() if len(weights) == 1 else None


def reference_solve(rhs, columns, lattice=()):
    """solve as it was before pruning moved ahead of imaging: image all,
    drop zero images, then drop the columns of the wrong weight."""
    rhs_image, *images = reference_images([rhs, *columns])
    kept = [i for i, image in enumerate(images) if not image.is_zero()]
    for w in lattice:
        target = image_weight(rhs_image, w)
        if target is not None:
            kept = [i for i in kept if image_weight(images[i], w) in (None, target)]
    rows, vec = linalg.identity_system([images[i].terms for i in kept], rhs_image.terms)
    solution = linalg.solve(rows, vec, len(kept))
    if solution is None:
        return None
    values = dict(zip(kept, solution))
    return [values.get(i, 0) for i in range(len(columns))]


def reference_least_monic(powers, columns, lattice=(), min_deg=0):
    """least_monic as it was: one reference_solve per degree."""
    for d in range(min_deg, len(powers)):
        rhs = powers[d].scaled(MultiPoly.const(powers[d].ctx.ring, -1))
        solution = reference_solve(rhs, list(powers[:d]) + list(columns), lattice)
        if solution is not None:
            return solution[:d] + [1], [-q for q in solution[d:]]
    return None


# quasi-homogeneous pairs, and two that are not (empty weight lattice)
LAURENT_PAIRS = [
    ("x^2", "y"), ("x^3", "y^2"), ("x^2+y^2", "x"), ("x+y^2", "y"),
    ("x*y", "x+y"), ("x", "y+1"), ("x^2-y^2", "y+1"),
]


def assert_same_values(got, want):
    assert got == want
    if got is not None:
        for g, w in zip(got, want):
            assert type(g) is type(w)


def spread(values, mask):
    """values on the columns kept by mask, with 0 on the others."""
    if values is None:
        return None
    rest = iter(values)
    return [next(rest) if kept else 0 for kept in mask]


def laurent_case(pair, seed):
    """Powers s^i f^s/G^m, equation columns for N = 1 or 2 (some scaled by
    a random polynomial, so that their numerators are not w-homogeneous),
    the pair's weight lattice, and `pruned`: for an rhs, the columns kept
    against its weight and their mask.  An equation column is kept when
    the oracle's weight rule builds it, and a scaled one by its section
    weight, as it comes from no operator."""
    rng = random.Random(f"{pair}/{seed}")
    F, G = poly(pair[0], XY), poly(pair[1], XY)
    ctx = MeroContext(F, G)
    m = rng.randint(0, 2)
    v0 = base_section(ctx, m)
    powers = [v0.scaled(ctx.s ** i) for i in range(4)]
    bases = [
        (base_section(ctx, m, shift=k), rng.randint(1, 2))
        for k in range(1, rng.randint(1, 2) + 1)
    ]
    labelled = [
        ((r, key), sec)
        for r, (base, max_j) in enumerate(bases)
        for key, sec in columns_within(base, 2, max_j)
    ]
    columns = [sec for _, sec in labelled]
    scaled = rng.sample(range(len(columns)), 3)
    for i in scaled:
        columns[i] = columns[i].scaled(random_poly(rng, ctx.ring))
    lattice = weight_lattice(F, G)

    def pruned(rhs):
        kept = {
            (r, key): sec
            for r, (base, max_j) in enumerate(bases)
            for key, sec in columns_within(base, 2, max_j, weight_rule(base, rhs, lattice))
        }
        built = [kept.get(label) for label, _ in labelled]
        target = [rhs.weight(w) for w in lattice]
        for i in scaled:
            weights = [columns[i].weight(w) for w in lattice]
            of_target = all(t is None or cw in (None, t) for cw, t in zip(weights, target))
            built[i] = columns[i] if of_target else None
        return [sec for sec in built if sec is not None], [sec is not None for sec in built]

    return rng, ctx, powers, columns, lattice, pruned


@pytest.mark.parametrize("pair", LAURENT_PAIRS, ids="/".join)
def test_laurent_least_monic_matches_imaging_per_degree(pair):
    # with the lattice, least_monic runs on the columns built for the
    # powers' weight, the reference on all of them
    for seed in range(2):
        rng, ctx, powers, columns, lattice, pruned = laurent_case(pair, seed)
        for lat in (lattice, ()):
            min_deg = rng.randint(0, 2)
            built, mask = pruned(powers[0]) if lat else (columns, [True] * len(columns))
            got = least_monic(powers, as_columns(built), min_deg)
            want = reference_least_monic(powers, columns, lat, min_deg)
            assert (got is None) == (want is None), (pair, seed, lat)
            if got is not None:
                assert_same_values(got[0], want[0])
                assert_same_values(spread(got[1], mask), want[1])


@pytest.mark.parametrize("pair", LAURENT_PAIRS, ids="/".join)
def test_laurent_solve_matches_imaging_all(pair):
    rng, ctx, powers, columns, lattice, pruned = laurent_case(pair, 7)
    for _ in range(3):
        picked = rng.sample(columns, 4)
        rhs = combination(picked, [Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in picked])
        if rng.random() < 0.5:
            rhs = rhs + powers[rng.randint(0, 3)]
        built, mask = pruned(rhs)
        want = reference_solve(rhs, columns, lattice)
        assert_same_values(spread(solve(rhs, built), mask), want)
        assert_same_values(solve(rhs, columns), reference_solve(rhs, columns))


def engine_system(sigma, pdeg, vdeg):
    """The engine's system: theta powers of sigma_m against V_{-1} columns
    as (element, shift) pairs, whose common denominator grows with the
    degree."""
    sig = sigma.ctx.sig
    theta = WeylElement.gen(sig, "t") * WeylElement.gen(sig, "dt")
    powers = [sigma]
    for _ in range(pdeg):
        powers.append(apply_delta_operator(theta, powers[-1]))
    t, dt = sig.index("t"), sig.index("dt")
    columns = [
        (elem, shift) for exps, elem, shift in sorted(operator_columns(sigma, vdeg))
        if exps[dt] - exps[t] <= -1
    ]
    return powers, columns


@pytest.mark.parametrize("pair", DELTA_PAIRS, ids="/".join)
@pytest.mark.parametrize("m", [0, 1])
def test_delta_least_monic_and_solve_match_imaging_all(pair, m):
    # polar parts imaged once against graph forms imaged and divided anew
    # for every degree
    rng = random.Random(f"{pair}/{m}")
    ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
    powers, pairs = engine_system(ctx.generator(), 3, 2)
    g_powers, g_pairs = engine_system(GraphContext(ctx).generator(), 3, 2)
    columns, g_columns = sections_of(pairs), sections_of(g_pairs)
    for min_deg in (0, 2):
        got = least_monic(powers, pairs, min_deg=min_deg)
        want = reference_least_monic(g_powers, g_columns, min_deg=min_deg)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_values(got[0], want[0])
            assert_same_values(got[1], want[1])
    picked = rng.sample(range(len(columns)), 3)
    values = [Q(rng.randint(-3, 3)) for _ in picked]
    rhs = combination([columns[i] for i in picked], values)
    g_rhs = combination([g_columns[i] for i in picked], values)
    for extra in (False, True):
        target = rhs + powers[3] if extra else rhs
        g_target = g_rhs + g_powers[3] if extra else g_rhs
        assert_same_values(solve(target, columns), reference_solve(g_target, g_columns))


def graph_b_section_along_t(ctx, vdeg, max_pdeg):
    """b_section_along_t on the graph form of sigma_m, each system solved
    by reference_least_monic; None where the engine raises."""
    sigma = GraphContext(ctx).generator()
    for step in sorted({d for d in range(2, vdeg + 1, 2)} | {vdeg}):
        powers, pairs = engine_system(sigma, max_pdeg, step)
        found = reference_least_monic(powers, sections_of(pairs))
        if found is not None:
            return MultiPoly(("theta",), {(i,): c for i, c in enumerate(found[0])})
    return None


@pytest.mark.parametrize("pair", DELTA_PAIRS, ids="/".join)
@pytest.mark.parametrize("m", [0, 1])
def test_b_section_along_t_matches_graph_form(pair, m):
    ctx = DeltaContext(poly(pair[0], XY), poly(pair[1], XY), m)
    # the engine's default (vdeg, max_pdeg), then small bounds
    for vdeg, max_pdeg in ((6, 8), (2, 1)):
        want = graph_b_section_along_t(ctx, vdeg, max_pdeg)
        if want is None:
            with pytest.raises(CapabilityError):
                b_section_along_t(ctx, vdeg, max_pdeg)
        else:
            assert b_section_along_t(ctx, vdeg, max_pdeg) == theta_to_s(want)


def over_larger_denominator(sec, i):
    """The same section with one more power of factors[i] in numerator and
    denominator."""
    pows = tuple(p + (j == i) for j, p in enumerate(sec.pows))
    return type(sec)(sec.ctx, sec.numerator * sec.ctx.factors[i], pows)


@pytest.mark.parametrize("module", ["laurent", "delta"])
def test_least_monic_reimages_when_the_denominator_grows(module):
    # powers[1] lies in the span once powers[0] is added, but is written
    # over a larger denominator than anything at degree 0
    rng = random.Random(module)
    F, G = poly("x*y", XY), poly("x+y", XY)
    if module == "laurent":
        ctx = MeroContext(F, G)
        columns = [sec for _, sec in columns_within(base_section(ctx, 1, shift=1), 2, 1)]
    else:
        ctx = DeltaContext(F, G, 1)
        columns = [sec for _, sec in sorted(materialized(operator_columns(ctx.generator(), 2)))]
    first = columns[-1].scaled(random_poly(rng, ctx.ring))
    picked = rng.sample(columns, 3)
    second = combination([first] + picked, [Q(-2, 3)] + [Q(rng.randint(1, 3)) for _ in picked])
    for i in range(len(ctx.factors)):
        second = over_larger_denominator(second, i)
    powers = [first, second]
    degree_0 = [max(p) for p in zip(*(sec.pows for sec in [first] + columns))]
    assert any(p > q for p, q in zip(powers[1].pows, degree_0))
    got = least_monic(powers, as_columns(columns))
    assert got == reference_least_monic(powers, columns)
    assert got is not None and got[0] == [Q(2, 3), 1]


# -- the weight of a section, known before its image ----------------------


MONOMIAL_PAIRS = [("x^2", "y"), ("x^3", "y^2"), ("x", "y^2"), ("x*y^2", "1")]


def seeded_sections(pair, seed):
    """Operator columns on f^{s+k}/G^m and random multiples of some, whose
    numerators are then not w-homogeneous."""
    rng = random.Random(f"{pair}/{seed}")
    ctx = MeroContext(poly(pair[0], XY), poly(pair[1], XY))
    base = base_section(ctx, rng.randint(0, 2), shift=rng.randint(0, 2))
    sections = [sec for _, sec in columns_within(base, 2, 1)]
    sections += [sec.scaled(random_poly(rng, ctx.ring)) for sec in rng.sample(sections, 6)]
    return rng, ctx, sections


@pytest.mark.parametrize("pair", MONOMIAL_PAIRS, ids="/".join)
def test_section_weight_is_image_weight_less_denominator(pair):
    for seed in range(2):
        rng, ctx, sections = seeded_sections(pair, seed)
        lattice = weight_lattice(ctx.F, ctx.G)
        assert lattice
        homogeneous = 0
        for sec in sections:
            for w in lattice:
                weight = sec.weight(w)
                for extra in ((0, 0), (1, 0), (0, 2), (rng.randint(1, 3), rng.randint(1, 3))):
                    pows = tuple(map(sum, zip(sec.pows, extra)))
                    image_w = poly_weight(sec.cleared_numerator(pows), w)
                    if image_w is None:
                        assert weight is None
                        continue
                    shift = sum(p * poly_weight(f, w) for p, f in zip(pows, ctx.factors))
                    assert weight == image_w - shift
                    homogeneous += 1
        assert homogeneous


@pytest.mark.parametrize("pair", MONOMIAL_PAIRS + [("x^2+y^2", "x"), ("x", "y+1")], ids="/".join)
def test_columns_of_weight_are_those_solve_keeps(pair):
    # the columns the oracle's weight rule builds, read off operators, are
    # those of the rhs's section weight (or of none)
    ctx = MeroContext(poly(pair[0], XY), poly(pair[1], XY))
    lattice = weight_lattice(ctx.F, ctx.G)
    base = base_section(ctx, 1, shift=1)
    columns = columns_within(base, 3, 2)
    for rhs in (base_section(ctx, 1), base_section(ctx, 1).scaled(poly("x+y+1", ctx.ring))):
        target = [rhs.weight(w) for w in lattice]
        want = [
            (key, sec)
            for key, sec in columns
            if all(t is None or sec.weight(w) in (None, t) for w, t in zip(lattice, target))
        ]
        assert columns_within(base, 3, 2, weight_rule(base, rhs, lattice)) == want
        assert len(want) < len(columns) or target == [None] * len(lattice)

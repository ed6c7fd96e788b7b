"""Meromorphic b-functions: the V-filtration engine and its variants."""

import pytest

from mbfun import merobf, oracle
from mbfun.annihilator import sabbah_line
from mbfun.bfunction import theta_to_s
from mbfun.errors import CapabilityError, CertificationError
from mbfun.merobf import (
    b_mero,
    b_simple,
    build_sigma,
    b_section_along_t,
    b_section_along_t_initial,
    mero_pair_h,
    reduced_b,
    smoothness_test,
)
from mbfun.errors import NotSpecializableError
from mbfun.multipoly import MultiPoly
from mbfun.oracle import minimal_b_search, weight_lattice
from mbfun.parser import parse_poly
from mbfun.rationals import Q
from mbfun.sections import U_VAR, apply_delta_operator, least_monic, operator_columns
from mbfun.weyl import WeylElement
from bfunction_helpers import divides


def pair(ftext, gtext):
    import re

    names = sorted(set(re.findall(r"[a-z][a-z0-9]*", ftext + " " + gtext)))
    return parse_poly(ftext, tuple(names)), parse_poly(gtext, tuple(names))


class TestEngine:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_separated_variables_collapse(self, m):
        F, G = pair("x", "y")
        res = b_mero(F, G, m)
        assert str(res.b) == "(s + 1)"
        assert res.status == "CERTIFIED"

    def test_cusp_over_square(self):
        F, G = pair("x^3", "y^2")
        res = b_mero(F, G, 0)
        assert res.b.roots == {Q(-1): 1, Q(-2, 3): 1, Q(-1, 3): 1}
        assert res.status == "CERTIFIED"


    def test_b_mero_never_completes_the_annihilator(self, monkeypatch):
        # the direct route reads only the context; the completion serves the
        # initial-ideal cross-check alone
        def forbidden(*args, **kwargs):
            raise AssertionError("annihilator completion on the b_mero path")

        monkeypatch.setattr("mbfun.merobf.annihilating_operators", forbidden)
        F, G = pair("x^2", "1")
        res = b_mero(F, G, 1)
        assert res.status == "CERTIFIED"
        assert res.b.roots == {Q(-1): 1, Q(-1, 2): 1}

    @pytest.mark.parametrize(
        "ftext, gtext, m, want",
        [("x^3", "y^2", 1, "theta^3 + theta^2 + 2/9*theta"), ("x*y", "x+y", 0, "theta^2 - theta")],
    )
    def test_engine_never_divides(self, monkeypatch, ftext, gtext, m, want):
        # delta sections are polar parts, zero iff their numerators are
        def forbidden(*args, **kwargs):
            raise AssertionError("polynomial division on the engine path")

        monkeypatch.setattr(MultiPoly, "divmod_single", forbidden)
        F, G = pair(ftext, gtext)
        assert str(b_section_along_t(build_sigma(F, G, m))) == want

    def test_witness_is_returned(self):
        F, G = pair("x^2", "1")
        res = b_mero(F, G, 0)
        assert res.witness is not None and 1 in res.witness

    def test_capability_guard(self):
        F = parse_poly("a + b + c + d")
        with pytest.raises(CapabilityError):
            b_mero(F, parse_poly("1", F.variables), 0)

    def test_rejects_non_coprime(self):
        F, G = pair("x^2", "x")
        with pytest.raises(ValueError):
            b_mero(F, G, 0)

    def test_size_is_checked_before_coprimality(self, monkeypatch):
        # the size check is cheap; coprimality of a degree-12 pair in three
        # variables is a large linear system
        def forbidden(*args, **kwargs):
            raise AssertionError("coprimality tested on an oversized pair")

        monkeypatch.setattr(merobf, "are_coprime", forbidden)
        F, G = pair("x^12 + y^5*z^7 + 1", "x*y*z + 1")
        with pytest.raises(CapabilityError):
            build_sigma(F, G, 0)


# Engine p(theta) on non-monomial pairs: the mero-engine and frontier
# pairs of perfbench/workloads.py, and two random pairs of degree 2
ENGINE_PINS = [
    ("x^2+y^3", "x", 0, "theta^3 - 2*theta^2 + 8/9*theta"),
    ("x*y", "x+y", 0, "theta^2 - theta"),
    ("x^2", "x+1", 1, "theta^2 + 1/2*theta"),
    ("x^2-y^2", "y+1", 0, "theta^2"),
    ("x^2+x*y", "x^2+2*y^2+x", 0, "theta^2 - 2*theta"),
    ("x^2+2*x*y", "2*x^2+2*x*y+y", 1, "theta^2"),
] + [
    (ftext, gtext, m, "theta")
    for ftext, gtext, m in [
        ("x+y^2", "y", 0), ("x^2+y", "x", 0), ("x+y^2", "x", 0),
        ("x", "x^2+y^2", 0), ("x", "x+y", 0), ("x+y^2", "y", 1),
        ("x", "x+y", 1), ("x+y^2", "y", 2), ("x", "x+y", 2),
        ("x+y^2", "x", 1), ("x^2+y", "x", 1), ("x+y^3", "y", 0),
        ("x", "y+1", 0), ("y", "x^2+1", 1),
    ]
]


@pytest.mark.parametrize("ftext, gtext, m, want", ENGINE_PINS)
def test_engine_value_on_non_monomial_pairs(ftext, gtext, m, want):
    F, G = pair(ftext, gtext)
    assert str(b_section_along_t(build_sigma(F, G, m))) == want



def unpruned_engine(ctx, vdeg=6, max_pdeg=8):
    """b_section_along_t with every operator of t-weight <= -1 among the
    columns at each step of its schedule; None where no step finds p."""
    sig, sigma = ctx.sig, ctx.generator()
    theta = WeylElement.gen(sig, "t") * WeylElement.gen(sig, "dt")
    powers = [sigma]
    for _ in range(max_pdeg):
        powers.append(apply_delta_operator(theta, powers[-1]))
    t, dt = sig.index("t"), sig.index("dt")
    for step in sorted({d for d in range(2, vdeg + 1, 2)} | {vdeg}):
        columns = [
            (elem, shift)
            for exps, elem, shift in operator_columns(sigma, step)
            if exps[dt] - exps[t] <= -1
        ]
        found = least_monic(powers, columns)
        if found is not None:
            return MultiPoly(("theta",), {(i,): c for i, c in enumerate(found[0])})
    return None


BATTERY = [
    (f"x^{a}", f"y^{b}" if b else "1", m) for a in (1, 2, 3) for b in (0, 1, 2) for m in (0, 1, 2)
]
# the ENGINE_PINS pairs that some w != 0 makes jointly quasi-homogeneous
GRADED_PINS = sorted({(f, g) for f, g, _, _ in ENGINE_PINS if weight_lattice(*pair(f, g))})


@pytest.mark.parametrize(
    "ftext, gtext, m", BATTERY + [(f, g, m) for f, g in GRADED_PINS for m in (0, 1, 2)]
)
def test_engine_equals_the_unpruned_system(ftext, gtext, m):
    # the engine builds only the witness operators of weight 0
    ctx = build_sigma(*pair(ftext, gtext), m)
    want = unpruned_engine(ctx)
    if want is None:
        with pytest.raises(NotSpecializableError):
            b_section_along_t(ctx)
    else:
        assert b_section_along_t(ctx) == want


@pytest.mark.parametrize("ftext, gtext, m", BATTERY + [(f, g, m) for f, g, m, _ in ENGINE_PINS])
def test_theta_powers_have_exact_u_degree(ftext, gtext, m):
    # theta takes c u^k to a section whose top term is -k c F u^(k+1), so
    # theta^d sigma_m has u-degree d + 1 and p(theta) sigma_m != 0 for
    # every monic p: a step with no V_{-1} column can never find p
    ctx = build_sigma(*pair(ftext, gtext), m)
    theta = WeylElement.gen(ctx.sig, "t") * WeylElement.gen(ctx.sig, "dt")
    powers = [ctx.generator()]
    for _ in range(8):
        powers.append(apply_delta_operator(theta, powers[-1]))
    assert [p.numerator.degree_in(U_VAR) for p in powers] == list(range(1, 10))
    assert least_monic(powers, []) is None


INITIAL_ROUTE_PAIRS = (
    BATTERY
    + [(f, g, m) for f, g in [("x+y^2", "y"), ("x", "x+y")] for m in (0, 1)]
    + [("x^2+y", "x", 0), ("x", "x^2+y^2", 0), ("x*y", "x+y", 0)]
)


@pytest.mark.parametrize("ftext, gtext, m", INITIAL_ROUTE_PAIRS)
def test_engine_agrees_with_initial_ideal_route(ftext, gtext, m):
    # two independent mechanisms for the same V-filtration b-polynomial
    ctx = build_sigma(*pair(ftext, gtext), m)
    direct = theta_to_s(b_section_along_t(ctx))
    via_initial = b_section_along_t_initial(ctx)
    assert direct.poly == via_initial.poly


@pytest.mark.parametrize(
    "ftext, gtext, m",
    list(dict.fromkeys(BATTERY + [(f, g, m) for f, g, m, _ in ENGINE_PINS] + INITIAL_ROUTE_PAIRS)),
)
def test_seed_operators_kill_sigma(ftext, gtext, m):
    # tG - F and G^2 d_x + m G G_x + (F_x G - F G_x) d_t annihilate
    # sigma_m = G^{1-m} / (tG - F); the initial-ideal route starts from them
    ctx = build_sigma(*pair(ftext, gtext), m)
    sigma = ctx.generator()
    seeds = merobf._seed_generators(ctx)
    assert len(seeds) == len(ctx.xvars) + 1
    for g in seeds:
        assert apply_delta_operator(g, sigma).is_zero()


class TestInputsThatFinish:
    """Pairs on which exact elimination used to report false "unsolvable"
    systems, so that the engine ran to NotSpecializableError or timed out."""

    @pytest.mark.parametrize("ftext, gtext, m", [("x", "y + 1", 0), ("y", "x^2 + 1", 1)])
    def test_certified_s_plus_one(self, ftext, gtext, m):
        F, G = pair(ftext, gtext)
        res = b_mero(F, G, m)
        assert res.status == "CERTIFIED"
        assert str(res.b) == "(s + 1)"


class TestSimpleVariant:
    def test_separated_variables(self):
        F, G = pair("x", "y")
        res = b_simple(F, G, 0)
        assert str(res.b) == "(s + 1)"

    def test_classical_shape_with_shifted_denominator(self):
        F, G = pair("x^2", "1")
        res = b_simple(F, G, 3)
        assert str(res.b) == "(s + 1)*(s + 1/2)"

    def test_mero_divides_simple(self):
        # the one-term equation is a special case of the N-term one
        F, G = pair("x^3", "y^2")
        simple = b_simple(F, G, 0)
        mero = b_mero(F, G, 0)
        assert divides(mero.b, simple.b)


class TestSmoothness:
    def test_critical_locus_inside_poles(self):
        F, G = pair("x^2 + y^2", "x")
        assert smoothness_test(F, G)

    def test_critical_point_off_poles(self):
        # (0, 1) kills both partial numerators while G = y^2 is nonzero there
        F, G = pair("x^3", "y^2")
        assert not smoothness_test(F, G)

    def test_unit_gradient(self):
        F, G = pair("x", "1")
        assert smoothness_test(F, G)

    def test_pair_numerators(self):
        F, G = pair("x", "y")
        hs = mero_pair_h(F, G)
        assert [str(h) for h in hs] == ["y", "-x"]


class TestReduced:
    def test_fast_path(self):
        F, G = pair("x^2 + y^2", "x")
        res = reduced_b(F, G, (1, 1), 2, 1)
        assert str(res.b) == "(s + 1)"
        assert any("trivial" in note for note in res.notes)

    def test_nontrivial_reduced_equation(self):
        F, G = pair("x^3", "y^2")
        res = reduced_b(F, G, (1, 1), 3, 2)
        assert res.b.roots == {Q(-1): 1, Q(-2, 3): 1, Q(-1, 3): 1}
        mero = b_mero(F, G, 0)
        assert divides(res.b, mero.b) or divides(mero.b, res.b)

    def test_one_search_per_g_exponent(self, monkeypatch):
        # each G-exponent l gets one least-degree search, capped below the
        # best degree so far: l = 0 reaches degree 3, l = 1 wins at degree 2
        # below it, and l = 2 is searched below that
        caps = []

        def counted(*args, **kwargs):
            caps.append(kwargs["max_bdeg"])
            return minimal_b_search(*args, **kwargs)

        monkeypatch.setattr(merobf, "minimal_b_search", counted)
        F, G = pair("x^3", "y^2")
        res = reduced_b(F, G, (1, 1), 3, 2)
        assert res.notes == ("beta found at degree 2 with G-clearing exponent 1",)
        assert caps == [6, 2, 1]

    def test_validates_quasi_homogeneity(self):
        F, G = pair("x^2 + y^3", "y")
        with pytest.raises(ValueError):
            reduced_b(F, G, (1, 1), 2, 1)   # wrong weights for F

    def test_rejects_equal_degrees(self):
        F, G = pair("x", "y")
        with pytest.raises(ValueError):
            reduced_b(F, G, (1, 1), 1, 1)

    @pytest.mark.parametrize("ftext, gtext, d2", [("x*y", "0", 0), ("x*y", "x", 1)])
    def test_rejects_a_zero_or_non_coprime_denominator(self, ftext, gtext, d2):
        # both inputs are quasi-homogeneous, and f = F/G is not defined
        F, G = pair(ftext, gtext)
        with pytest.raises(ValueError, match="nonzero|coprime"):
            reduced_b(F, G, (1, 1), 2, d2)


@pytest.mark.parametrize(
    "route",
    [
        lambda: b_simple(*pair("x^2", "y"), 0),
        lambda: reduced_b(*pair("x^3", "y^2"), (1, 1), 3, 2),
        lambda: sabbah_line(*pair("x", "y"), 0),
    ],
    ids=["b_simple", "reduced_b", "sabbah_line"],
)
def test_every_returned_witness_is_reapplied(monkeypatch, route):
    # a witness that no longer satisfies its equation is caught, not returned
    original = oracle._operators

    def perturbed(ctx, columns, values):
        ops = original(ctx, columns, values)
        r, P = next(iter(ops.items()))
        exps = next(iter(P.terms))
        ops[r] = P + WeylElement(P.sig, {exps: 1})
        return ops

    monkeypatch.setattr(oracle, "_operators", perturbed)
    with pytest.raises(CertificationError):
        route()

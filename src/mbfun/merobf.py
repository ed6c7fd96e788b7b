"""Bernstein-Sato polynomials of meromorphic functions f = F/G.

The engine realizes the canonical section sigma_m = G^{1-m}/(tG - F) of
O[1/((tG-F)G)] / O[1/G] on the graph tG = F and reads off the b-polynomial
of sigma_m along t = 0.  b_{f,m}(s) = p(-s-1).

The direct route (b_section_along_t) solves for p(t d_t) and its V_{-1}
witness as exact linear systems in the section's context alone; it needs
no annihilator.  Only the initial-ideal cross-check
(b_section_along_t_initial) completes one: starting from hand-verified
seed operators, all operators of bounded total degree killing sigma_m in
the quotient module are found as a nullspace (membership there is
decidable because G and tG - F are coprime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .bfunction import BFunction, S_VAR, theta_to_s
from .commutative import are_coprime, radical_contains
from .errors import CapabilityError, NotSpecializableError
from .groebner import LeftIdeal
from .multipoly import MultiPoly, unify
from .oracle import (
    DEFAULT_DEG,
    DEFAULT_N,
    minimal_b_search,
    minimize_by_oracle,
    verify_functional_equation,
)
from .rationals import Q
from .sections import (
    DT_VAR,
    DeltaContext,
    LaurentSection,
    MeroContext,
    T_VAR,
    apply_delta_operator,
    base_section,
    dname,
    least_monic,
    operator_columns,
)
from .vfiltration import b_polynomial_theta, theta_reduce
from .weyl import WeylElement

COMPLETION_DEGREE = 3

CERTIFIED = "CERTIFIED"
UNCERTIFIED = "UNCERTIFIED"


@dataclass
class BResult:
    b: BFunction
    status: str                                  # CERTIFIED | UNCERTIFIED
    witness: Optional[Dict[int, WeylElement]] = None
    engine_b: Optional[BFunction] = None         # pre-minimization value
    notes: Tuple[str, ...] = ()


def _seed_generators(ctx: DeltaContext) -> List[WeylElement]:
    sig = ctx.sig
    gens = [WeylElement.from_poly(sig, ctx.P)]
    G2 = WeylElement.from_poly(sig, ctx.G * ctx.G)
    for x in ctx.xvars:
        dF, dG = ctx.F.derivative(x), ctx.G.derivative(x)
        elem = G2 * WeylElement.gen(sig, dname(x))
        if ctx.m:
            elem = elem + Q(ctx.m) * WeylElement.from_poly(sig, ctx.G * dG)
        h = dF * ctx.G - ctx.F * dG
        elem = elem + WeylElement.from_poly(sig, h) * WeylElement.gen(sig, DT_VAR)
        gens.append(elem)
    return gens


def annihilating_operators(ctx: DeltaContext, deg: int) -> List[WeylElement]:
    """All operators of total degree <= deg killing sigma_m in the quotient,
    as a nullspace over the operator monomials."""
    columns = sorted(operator_columns(ctx.generator(), deg, 0))
    rows, _ = linalg.identity_system(
        [image.terms for image in ctx.images([sec for _, sec in columns])]
    )
    out = []
    for vec in linalg.nullspace(rows, len(columns)):
        terms = {exps: c for (exps, _), c in zip(columns, vec) if c != 0}
        if terms:
            out.append(WeylElement(ctx.sig, terms).content_primitive())
    return out


def build_sigma(F: MultiPoly, G: MultiPoly, m: int) -> DeltaContext:
    """Context of sigma_m, after checking the inputs and the seed operators."""
    F, G = unify(F, G)
    if F.is_zero() or F.is_constant():
        raise ValueError("F must be nonzero and nonconstant")
    if G.is_zero():
        raise ValueError("G must be nonzero")
    if not are_coprime(F, G):
        raise ValueError("F and G must be coprime")
    if len(F.variables) > 3 or max(F.total_degree(), G.total_degree()) > 8:
        raise CapabilityError("input beyond supported size (n <= 3, degree <= 8)")
    ctx = DeltaContext(F, G, m)
    sigma = ctx.generator()
    for g in _seed_generators(ctx):
        if not apply_delta_operator(g, sigma).is_zero():
            raise AssertionError("seed generator fails to annihilate sigma_m")
    return ctx


def b_section_along_t(
    ctx: DeltaContext,
    vdeg: int = 6,
    max_pdeg: int = 8,
) -> MultiPoly:
    """Monic p(theta), minimal within bounds, with p(t d_t) sigma_m in
    V_{-1}(D) sigma_m (theta = t d_t; V_{-1} = operators of t-weight <= -1).

    The candidate p and the V_{-1} witness are solved for jointly as one
    exact linear system per degree; degrees increase, so the first hit is
    minimal among those reachable with witness operators of total degree
    <= vdeg.  Any hit is a multiple of the true b-polynomial of the
    section, since such p form an ideal of Q[theta].
    """
    sig = ctx.sig
    sigma = ctx.generator()
    theta_op = WeylElement.gen(sig, T_VAR) * WeylElement.gen(sig, DT_VAR)
    theta_secs = [sigma]
    for _ in range(max_pdeg):
        theta_secs.append(apply_delta_operator(theta_op, theta_secs[-1]))
    t_pos, dt_pos = sig.index(T_VAR), sig.index(DT_VAR)
    schedule = sorted({d for d in range(2, vdeg + 1, 2)} | {vdeg})
    for step in schedule:
        vcols = [
            sec
            for exps, sec in sorted(operator_columns(sigma, step, 0))
            if exps[dt_pos] - exps[t_pos] <= -1
        ]
        found = least_monic(theta_secs, vcols)
        if found is not None:
            return MultiPoly(("theta",), {(i,): c for i, c in enumerate(found[0])})
    raise NotSpecializableError(
        f"no p(theta) of degree <= {max_pdeg} with a V_{{-1}} witness of "
        f"degree <= {vdeg}"
    )


def b_section_along_t_initial(ctx: DeltaContext) -> MultiPoly:
    """Same value through the initial-ideal route: generator of
    in_w(annihilator) ∩ Q[theta] for w = (t: -1, d_t: +1).

    The annihilator is the seed ideal completed by the operators of total
    degree <= COMPLETION_DEGREE killing sigma_m.  Exact when that
    completion is the full annihilator; kept as an independent cross-check
    for small inputs (the weight Groebner basis is expensive for
    nontrivial G).
    """
    ideal = LeftIdeal(ctx.sig, _seed_generators(ctx))
    for cand in annihilating_operators(ctx, COMPLETION_DEGREE):
        if not ideal.contains(cand):
            ideal = LeftIdeal(ctx.sig, ideal.generators + [cand])
    reduced = theta_reduce(ideal, T_VAR, DT_VAR, "theta")
    return b_polynomial_theta(reduced)


def b_mero(
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
) -> BResult:
    """b_{f,m}(s) = p_sigma(-s-1), oracle-certified and oracle-minimized."""
    F, G = unify(F, G)
    engine_b = theta_to_s(b_section_along_t(build_sigma(F, G, m)))
    notes: List[str] = []
    witness = verify_functional_equation(engine_b, F, G, m, N, deg)
    if witness is None:
        return BResult(engine_b, UNCERTIFIED, None, engine_b,
                       ("oracle found no witness within bounds",))
    b = minimize_by_oracle(engine_b, F, G, m, N, deg)
    if b.poly != engine_b.poly:
        notes.append("engine value was a proper multiple; oracle minimized it")
        witness = verify_functional_equation(b, F, G, m, N, deg)
        if witness is None:
            raise AssertionError("minimized b lost its witness")
    return BResult(b, CERTIFIED, witness, engine_b, tuple(notes))


def b_simple(
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    opdeg: int = DEFAULT_DEG,
    max_bdeg: int = 8,
) -> BResult:
    """Minimal monic b with b(s) f^s/G^m in D[s] (f^{s+1}/G^m), within bounds."""
    F, G = unify(F, G)
    if not are_coprime(F, G):
        raise ValueError("F and G must be coprime")
    ctx = MeroContext(F, G)
    v0 = base_section(ctx, m)
    target = base_section(ctx, m, shift=1)
    found = minimal_b_search(ctx, v0, [target], opdeg, opdeg, max_bdeg)
    if found is None:
        raise CapabilityError(
            f"no one-term functional equation found with operator degree <= {opdeg} "
            f"and b-degree <= {max_bdeg}"
        )
    b, ops = found
    return BResult(b, CERTIFIED, {1: ops[0]})


def mero_pair_h(F: MultiPoly, G: MultiPoly) -> List[MultiPoly]:
    """h_i = F_{x_i} G - F G_{x_i}, the numerators of the partials of F/G."""
    return [F.derivative(x) * G - F * G.derivative(x) for x in F.variables]


def smoothness_test(F: MultiPoly, G: MultiPoly) -> bool:
    """True iff f = F/G has no critical points off G = 0 (V(h) ⊆ V(G))."""
    F, G = unify(F, G)
    hs = [h for h in mero_pair_h(F, G) if not h.is_zero()]
    return radical_contains(hs, G)


def _check_quasi_homogeneous(F: MultiPoly, weights: Sequence, d) -> bool:
    euler = MultiPoly.zero(F.variables)
    for w, x in zip(weights, F.variables):
        euler = euler + Q(w) * MultiPoly.var(F.variables, x) * F.derivative(x)
    return euler == F * Q(d)


def reduced_b(
    F: MultiPoly,
    G: MultiPoly,
    weights: Sequence,
    d1,
    d2,
    opdeg: int = DEFAULT_DEG,
    max_bdeg: int = 6,
    lmax: int = 2,
) -> BResult:
    """Reduced b-function (s+1)*beta(s) for quasi-homogeneous (F, G).

    beta is minimal with beta(s) f^s in sum_i D[1/G][s] h_i f^s; negative
    G-powers are cleared by searching the equations G^l beta(s) f^s =
    sum_i P_i h_i f^s for l = 0..lmax jointly with the degree of beta.
    """
    F, G = unify(F, G)
    if not _check_quasi_homogeneous(F, weights, d1):
        raise ValueError("F is not quasi-homogeneous of weight d1 under w")
    if not _check_quasi_homogeneous(G, weights, d2):
        raise ValueError("G is not quasi-homogeneous of weight d2 under w")
    if Q(d1) == Q(d2):
        raise ValueError("d1 - d2 must be nonzero")
    s = MultiPoly.var((S_VAR,), S_VAR)
    if smoothness_test(F, G):
        return BResult(BFunction.from_poly(s + 1), CERTIFIED, None, None,
                       ("critical locus inside G=0; reduced equation is trivial",))
    ctx = MeroContext(F, G)
    targets = [
        base_section(ctx, 0).scaled(h.extend_to(ctx.ring))
        for h in mero_pair_h(F, G)
        if not h.is_zero()
    ]
    for bdeg in range(max_bdeg + 1):
        for l in range(lmax + 1):
            v0 = LaurentSection(ctx, ctx.power(1, l), (0, 0))
            found = minimal_b_search(
                ctx, v0, targets, opdeg, opdeg, max_bdeg=bdeg, min_bdeg=bdeg
            )
            if found is not None:
                beta, ops = found
                b = BFunction.from_poly((s + 1) * beta.poly)
                return BResult(
                    b, CERTIFIED, {i + 1: op for i, op in enumerate(ops)}, None,
                    (f"beta found at degree {bdeg} with G-clearing exponent {l}",),
                )
    raise CapabilityError(
        f"no reduced equation found with b-degree <= {max_bdeg}, "
        f"operator degree <= {opdeg}, G-exponent <= {lmax}"
    )

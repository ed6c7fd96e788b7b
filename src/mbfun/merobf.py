"""Bernstein-Sato polynomials of meromorphic functions f = F/G.

The engine realizes the canonical section sigma_m = G^{1-m}/(tG - F) of
O[1/((tG-F)G)] / O[t][1/G] on the graph tG = F and reads off the
b-polynomial of sigma_m along t = 0.  b_{f,m}(s) = p(-s-1).  Modulo
O[t][1/G] each section is one polar part sum_j n_j(x) G^-b (tG-F)^-j, so
the engine never divides by tG - F (see sections.DeltaContext).

The direct route (b_section_along_t) solves for p(t d_t) and its V_{-1}
witness as exact linear systems in the section's context alone; it needs
no annihilator.  Only the initial-ideal cross-check
(b_section_along_t_initial) completes one, and so only it builds the seed
operators and checks that they kill sigma_m: starting from them, all
operators of bounded total degree killing sigma_m in the quotient module
are found as a nullspace (a section is zero there iff its polar numerator
is).  That route writes the degree-zero part of the initial ideal in
s = -t d_t - 1 and so returns b(s) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
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
    context_lattice,
    minimal_b_search,
    minimize_by_oracle,
    verify_functional_equation,
)
from .rationals import ONE, Q
from .sections import (
    DT_VAR,
    DeltaContext,
    LaurentSection,
    MeroContext,
    T_VAR,
    apply_delta_operator,
    base_section,
    dname,
    images,
    least_monic,
    operator_columns,
    poly_weight,
)
from .vfiltration import b_polynomial, theta_reduce
from .weyl import WeylElement

COMPLETION_DEGREE = 3

# b-degree bounds of the one-term and reduced searches, and the largest
# G-clearing exponent the reduced search tries
SIMPLE_MAX_BDEG = 8
REDUCED_MAX_BDEG = 6
REDUCED_LMAX = 2

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
    G = WeylElement.from_poly(sig, ctx.G)
    gens = [WeylElement.gen(sig, T_VAR) * G - WeylElement.from_poly(sig, ctx.F)]
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
    columns = sorted(operator_columns(ctx.generator(), deg))
    sections = [elem.times(shift, ONE) for _, elem, shift in columns]
    rows, _ = linalg.identity_system([image.terms for image in images(sections)])
    out = []
    for vec in linalg.nullspace(rows, len(columns)):
        terms = {exps: c for (exps, _, _), c in zip(columns, vec) if c != 0}
        if terms:
            out.append(WeylElement(ctx.sig, terms).content_primitive())
    return out


def meromorphic_pair(F: MultiPoly, G: MultiPoly, m: int = 0) -> Tuple[MultiPoly, MultiPoly]:
    """(F, G) over one variable list, after checking that f = F/G is a
    meromorphic function the b-functions are defined for: F and G nonzero
    and coprime, and the order m nonnegative."""
    if m < 0:
        raise ValueError(f"the order m must be nonnegative, got {m}")
    F, G = unify(F, G)
    if F.is_zero() or G.is_zero():
        raise ValueError("F and G must be nonzero")
    if not are_coprime(F, G):
        raise ValueError("F and G must be coprime")
    return F, G


def build_sigma(F: MultiPoly, G: MultiPoly, m: int) -> DeltaContext:
    """Context of sigma_m, after checking the inputs.  The size cap comes
    before the pair check, whose coprimality test grows with the degrees."""
    F, G = unify(F, G)
    if F.is_constant():
        raise ValueError("F must be nonzero and nonconstant")
    if len(F.variables) > 3 or max(F.total_degree(), G.total_degree()) > 8:
        raise CapabilityError("input beyond supported size (n <= 3, degree <= 8)")
    return DeltaContext(*meromorphic_pair(F, G, m), m)


def b_section_along_t(
    ctx: DeltaContext,
    vdeg: int = 6,
    max_pdeg: int = 8,
) -> MultiPoly:
    """Monic p(theta), minimal within bounds, with p(t d_t) sigma_m in
    V_{-1}(D) sigma_m (theta = t d_t; V_{-1} = operators of t-weight <= -1).

    The candidate p and the V_{-1} witness are solved for jointly as one
    exact linear system per degree of p.  The witness degree bound steps
    through 2, 4, ... up to vdeg, and within a step the degrees of p
    increase up to max_pdeg.  So the hit is minimal only among the p with
    a witness of total degree <= the first step that finds one: a p of
    lower degree may need a witness of a later step.  Any hit is a
    multiple of the true b-polynomial of the section, since such p form an
    ideal of Q[theta].

    The witness operators x^alpha d^beta (x and t together) are chosen by
    their shift delta = alpha - beta alone: delta_t >= 1 puts them in
    V_{-1}, and w.delta = 0 for each w making F and G homogeneous, with t
    weighted w(F) - w(G) so that tG - F is too: the module is then graded,
    and theta^k sigma_m has sigma_m's weight.  p is the unique least monic
    relation, so this cannot change it.

    A step with no witness column is skipped, as is one with the columns
    of the failed step before it.  The skip is exact: theta takes c u^k to
    a section whose top term is -k c F u^(k+1) (over one more G), so
    theta^d sigma_m has u-degree exactly d + 1, p(theta) sigma_m != 0 for
    every monic p, and no p exists without a column.  The powers theta^d
    sigma_m are built one theta at a time, only as `least_monic` tries
    degree d, and kept across the steps.
    """
    sig = ctx.sig
    sigma = ctx.generator()
    theta_op = WeylElement.gen(sig, T_VAR) * WeylElement.gen(sig, DT_VAR)
    theta_secs = [sigma]

    def theta_powers():
        for d in range(max_pdeg + 1):
            if d == len(theta_secs):
                theta_secs.append(apply_delta_operator(theta_op, theta_secs[-1]))
            yield theta_secs[d]

    lattice = [
        w + (poly_weight(ctx.F, w) - poly_weight(ctx.G, w),) for w in context_lattice(ctx)
    ]

    def keep(delta):
        return delta[-1] >= 1 and all(sum(map(mul, w, delta)) == 0 for w in lattice)

    failed = None
    for step in sorted({d for d in range(2, vdeg + 1, 2)} | {vdeg}):
        vcols = list(operator_columns(sigma, step, keep))
        keys = [key for key, _, _ in vcols]
        if not keys or keys == failed:
            continue
        found = least_monic(theta_powers(), [(elem, shift) for _, elem, shift in vcols])
        if found is not None:
            return MultiPoly(("theta",), {(i,): c for i, c in enumerate(found[0])})
        failed = keys
    raise NotSpecializableError(
        f"no p(theta) of degree <= {max_pdeg} with a V_{{-1}} witness of "
        f"degree <= {vdeg}"
    )


def b_section_along_t_initial(ctx: DeltaContext) -> BFunction:
    """b(s) = p(-s-1) through the initial-ideal route: the monic generator
    of in_w(annihilator) ∩ Q[s] for w = (t: -1, d_t: +1), written in
    s = -t d_t - 1.

    The annihilator is the seed ideal completed by the operators of total
    degree <= COMPLETION_DEGREE killing sigma_m.  Exact when that
    completion is the full annihilator; kept as an independent cross-check
    for small inputs (the weight Groebner basis is expensive for
    nontrivial G).
    """
    seeds, sigma = _seed_generators(ctx), ctx.generator()
    if any(not apply_delta_operator(g, sigma).is_zero() for g in seeds):
        raise AssertionError("seed generator fails to annihilate sigma_m")
    ideal = LeftIdeal(ctx.sig, seeds)
    for cand in annihilating_operators(ctx, COMPLETION_DEGREE):
        if not ideal.contains(cand):
            ideal = LeftIdeal(ctx.sig, ideal.generators + [cand])
    return b_polynomial(theta_reduce(ideal))


def b_mero(
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
) -> BResult:
    """b_{f,m}(s) = p_sigma(-s-1), oracle-certified and oracle-minimized."""
    sigma_ctx = build_sigma(F, G, m)
    F, G = sigma_ctx.F, sigma_ctx.G
    engine_b = theta_to_s(b_section_along_t(sigma_ctx))
    # one Laurent context for every oracle search, sharing the pair's lattice
    ctx = MeroContext(F, G, sigma_ctx.lattice)
    notes: List[str] = []
    witness = verify_functional_equation(engine_b, F, G, m, N, deg, ctx)
    if witness is None:
        return BResult(engine_b, UNCERTIFIED, None, engine_b,
                       (f"oracle found no witness within bounds N={N}, deg={deg}",))
    b = minimize_by_oracle(engine_b, F, G, m, N, deg, ctx)
    if b.poly != engine_b.poly:
        notes.append("engine value was a proper multiple; oracle minimized it")
        witness = verify_functional_equation(b, F, G, m, N, deg, ctx)
        if witness is None:
            raise AssertionError("minimized b lost its witness")
    return BResult(b, CERTIFIED, witness, engine_b, tuple(notes))


def b_simple(F: MultiPoly, G: MultiPoly, m: int = 0) -> BResult:
    """Minimal monic b with b(s) f^s/G^m in D[s] (f^{s+1}/G^m), within the
    bounds DEFAULT_DEG on the operator and SIMPLE_MAX_BDEG on b."""
    ctx = MeroContext(*meromorphic_pair(F, G, m))
    v0 = base_section(ctx, m)
    target = base_section(ctx, m, shift=1)
    found = minimal_b_search(ctx, v0, [target], DEFAULT_DEG, SIMPLE_MAX_BDEG)
    if found is None:
        raise CapabilityError(
            f"no one-term functional equation found with operator degree <= {DEFAULT_DEG} "
            f"and b-degree <= {SIMPLE_MAX_BDEG}"
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


def reduced_b(F: MultiPoly, G: MultiPoly, weights: Sequence, d1, d2) -> BResult:
    """Reduced b-function (s+1)*beta(s) for quasi-homogeneous (F, G).

    beta is minimal with beta(s) f^s in sum_i D[1/G][s] h_i f^s; negative
    G-powers are cleared by searching the equations G^l beta(s) f^s =
    sum_i P_i h_i f^s for l = 0..REDUCED_LMAX jointly with the degree of
    beta: one least-degree search per l, each below the best degree found
    so far, so the least degree wins and ties go to the least l.  The
    operator degree is at most DEFAULT_DEG and that of beta at most
    REDUCED_MAX_BDEG.

    F is quasi-homogeneous of weight d1 when every term has w-weight d1
    (sections.poly_weight), which is the weighted Euler identity
    sum_i w_i x_i F_{x_i} = d1 F; likewise G and d2.
    """
    F, G = meromorphic_pair(F, G)
    weights = [Q(w) for w in weights]
    if poly_weight(F, weights) != Q(d1):
        raise ValueError("F is not quasi-homogeneous of weight d1 under w")
    if poly_weight(G, weights) != Q(d2):
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
    best, cap = None, REDUCED_MAX_BDEG
    for l in range(REDUCED_LMAX + 1):
        if cap < 0:
            break
        v0 = LaurentSection(ctx, ctx.power(1, l), (0, 0))
        found = minimal_b_search(ctx, v0, targets, DEFAULT_DEG, max_bdeg=cap)
        if found is not None:
            best, cap = (found, l), found[0].degree() - 1
    if best is not None:
        (beta, ops), l = best
        b = BFunction.from_poly((s + 1) * beta.poly)
        return BResult(
            b, CERTIFIED, {i + 1: op for i, op in enumerate(ops)}, None,
            (f"beta found at degree {beta.degree()} with G-clearing exponent {l}",),
        )
    raise CapabilityError(
        f"no reduced equation found with b-degree <= {REDUCED_MAX_BDEG}, "
        f"operator degree <= {DEFAULT_DEG}, G-exponent <= {REDUCED_LMAX}"
    )

"""Brute-force functional-equation oracle.

Independent of the V-filtration engine: a candidate b(s) is checked by
searching for explicit operators P_k(s) with

    b(s) (f^s / G^m) = sum_{k=1}^{N} P_k(s) (f^{s+k} / G^m)

inside the Laurent module, as an exact rational linear system in the
unknown coefficients of the P_k.  Success yields a concrete witness, which
is re-verified by applying it before it is returned.

There is one solver, `minimal_b_search`: the coefficients of b and of the
operators enter one linear system per candidate degree of b, and the
least degree that solves gives the unique minimal monic b within the
bounds.  It serves the meromorphic equation (`minimize_by_oracle`), the
one-term variant and the reduced equation, which differ only in their
target sections.  A check of a fixed b is the same search at b-degree 0
with b(s) v0 as its v0: `verify_functional_equation` runs it once per
operator degree, from the first degree at which a column exists, and
`prefactored_witness` once, with G^2 moved to the left as G^-2.

Minimality is claimed at (N, deg): no monic b' of lower degree admits the
equation within those bounds.  When b splits over Q, `minimize_by_oracle`
first tests each root r of multiplicity mu (`_roots_forced`); if no
admissible b' can vanish there to a lower order, b divides every
admissible b' and no joint search runs.  The test is exact: specializing
s to r + e commutes with the D-action, s being central, and a section is
zero iff its numerator is, so it is a linear system in the numerators at
s = r + e modulo e^mu (`sections.least_monic` at a point).

When (F, G) are jointly quasi-homogeneous the system splits into weight
blocks, and only the block of the target's weight is solved.  A column
x^alpha s^j d^beta target has its target's weight plus w.(alpha - beta),
so `_columns` looks up in `shift_table` the shifts alpha - beta with
w.(alpha - beta) = w(rhs) - w(target) for each w, and no column of another
shift is built; b(s) v0 has v0's weight at every degree of b.  This preserves
solvability in both directions because every column is
weight-homogeneous in x.  Each column is a shift of a derivative of its
target, and each derivative is imaged once per common denominator,
however many degrees of b are tried.  The derivatives and the weight
lattice belong to the MeroContext, and so do the targets of each (m, N)
with their rest weights, so every search on one context, the operator
degrees of `verify_functional_equation` and the minimization in `b_mero`
among them, builds each of them once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .bfunction import BFunction, S_VAR
from .errors import CertificationError
from .multipoly import MultiPoly
from .rationals import coprime_integers
from .sections import (
    LaurentSection,
    MeroContext,
    apply_operator,
    base_section,
    least_monic,
    operator_columns,
    shift_table,
)
from .weyl import Exponent, WeylElement

DEFAULT_N = 3
DEFAULT_DEG = 6

# each column labelled (r, operator key), as (tower element, shift)
Columns = List[Tuple[Tuple[int, Exponent], Tuple[LaurentSection, Exponent]]]
# for each target r, (the lattice's w that prune its columns, the weight
# under each that their shifts must have)
Rests = Dict[int, Tuple[Tuple, Tuple]]


# -- quasi-homogeneity lattice -------------------------------------------


def weight_lattice(F: MultiPoly, G: MultiPoly) -> List[Tuple[int, ...]]:
    """Basis of the rational weight vectors w != 0 making F and G both
    w-homogeneous, each scaled to coprime integers; empty when only w = 0
    qualifies."""
    n = len(F.variables)
    rows = []
    for poly, dcol in ((F, n), (G, n + 1)):
        for exps in poly.terms:
            row = {i: e for i, e in enumerate(exps) if e}
            row[dcol] = -1
            rows.append(row)
    vectors = [dict(enumerate(vec[:n])) for vec in linalg.nullspace(rows, n + 2)]
    return [tuple(coprime_integers(w).values()) for w in vectors if any(w.values())]


def context_lattice(ctx) -> List[Tuple[int, ...]]:
    """weight_lattice(ctx.F, ctx.G), computed once per context, which keeps
    it."""
    if ctx.lattice is None:
        ctx.lattice = weight_lattice(ctx.F, ctx.G)
    return ctx.lattice


def context_targets(ctx: MeroContext, m: int, N: int):
    """(v0 = f^s/G^m, the targets f^(s+k)/G^m for k = 1 .. N, their
    `_rest_weights` against v0), built once per (m, N) and kept by the
    context.  A weight reads only x-exponents, so they serve b(s) v0 too."""
    if (m, N) not in ctx.targets:
        v0 = base_section(ctx, m)
        targets = [base_section(ctx, m, shift=k) for k in range(1, N + 1)]
        rests = _rest_weights(dict(enumerate(targets)), context_lattice(ctx), v0)
        ctx.targets[m, N] = v0, targets, rests
    return ctx.targets[m, N]


# -- labelled columns and witnesses --------------------------------------


def _rest_weights(
    targets: Dict[int, LaurentSection], lattice: Sequence, rhs: LaurentSection
) -> Rests:
    """For each target r, the lattice's w under which target_r and rhs both
    have a weight, and rhs's weight less target_r's under each: the weights
    w.(alpha - beta) that a column x^alpha s^j d^beta target_r must have.
    A weight of None, of target_r or of rhs, prunes nothing."""
    wanted = [(w, rhs.weight(w)) for w in lattice]
    rests = {}
    for r, target in targets.items():
        weights = [(w, want, target.weight(w)) for w, want in wanted]
        rest = {w: want - own for w, want, own in weights if None not in (want, own)}
        rests[r] = (tuple(rest), tuple(rest.values()))
    return rests


def _columns(
    targets: Dict[int, LaurentSection],
    deg: int,
    lattice: Sequence,
    rhs: LaurentSection,
    rests: Optional[Rests] = None,
    jdeg: Optional[int] = None,
) -> Columns:
    """Sections (x^alpha s^j d^beta) target_r with |alpha| + |beta| <= deg
    and j <= jdeg (deg when None), labelled (r, operator key), of rhs's
    w-weight for each w in the lattice; the others are not built.  A
    column's weight is target_r's plus w.(alpha - beta), so its shift is
    looked up in `shift_table` by the rest weights (`_rest_weights`, given
    by a caller that computed them once).  Every b(s) rhs has rhs's weight,
    so the same columns serve each degree of a b-function."""
    n = len(rhs.ctx.sig.pairs)
    if rests is None:
        rests = _rest_weights(targets, lattice, rhs)
    columns = []
    for r, target in targets.items():
        kept, rest = rests[r]
        shifts = shift_table(n, deg, kept).get(rest, ())
        columns += [
            ((r, key), (elem, shift))
            for key, elem, shift in operator_columns(target, deg, shifts, jdeg)
        ]
    return columns


def _first_degree(n: int, rests: Rests, deg: int) -> Optional[int]:
    """Least d in 1 .. deg at which some target has a shift of its rest
    weight among the shifts of |delta|_1 <= d, or None: the least degree
    with a column, since each such shift delta has the column x^delta+
    d^delta- of degree |delta|_1.  One `shift_table` lookup per degree, so
    no table above the answer is built."""
    for d in range(1, deg + 1):
        if any(rest in shift_table(n, d, kept) for kept, rest in rests.values()):
            return d
    return None


def _operators(ctx: MeroContext, columns: Columns, values) -> Dict[int, WeylElement]:
    """The coefficients on the columns labelled (r, key) as one operator per
    r that has a nonzero one."""
    coeffs: Dict[int, Dict[Exponent, object]] = {}
    for ((r, key), _), value in zip(columns, values):
        if value != 0:
            coeffs.setdefault(r, {})[key] = value
    return {r: WeylElement(ctx.sig, terms) for r, terms in sorted(coeffs.items())}


def _recheck_witness(
    lhs: LaurentSection, targets: Dict[int, LaurentSection], ops: Dict[int, WeylElement]
) -> None:
    """Raise CertificationError unless lhs = sum_r P_r target_r, with each
    operator applied afresh to its target."""
    total: Optional[LaurentSection] = None
    for r, P in ops.items():
        part = apply_operator(P, targets[r])
        total = part if total is None else total + part
    if total is None or not total.section_eq(lhs):
        raise CertificationError("witness failed independent re-application")


# -- public oracle entry points ------------------------------------------


def verify_functional_equation(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
    ctx: Optional[MeroContext] = None,
) -> Optional[Dict[int, WeylElement]]:
    """Witness {k: P_k} for b(s) f^s/G^m = sum_k P_k f^{s+k}/G^m, or None.

    The degree bound grows from the first degree with a column
    (`_first_degree`) up to deg, and the search stops at the first
    success, so a witness has the least operator degree within the bound
    and a None has exercised the full bounds.  Below the first degree
    there is no column, so b(s) f^s/G^m, which is not zero, has no
    witness there.  Each degree is a `minimal_b_search` at b-degree 0 with
    b(s) f^s/G^m as v0, on the context's targets and rest weights
    (`context_targets`); the operators that are not zero are returned.
    ctx, when given, is a MeroContext of (F, G): the degrees, and other
    searches on it, share its derivative towers, weight lattice and
    targets.
    """
    if ctx is None:
        ctx = MeroContext(F, G)
    v0, targets, rests = context_targets(ctx, m, N)
    lhs = v0.scaled(b.poly.extend_to(ctx.ring))
    first = _first_degree(len(ctx.sig.pairs), rests, deg)
    if first is None:
        return None
    for d in range(first, deg + 1):
        found = minimal_b_search(ctx, lhs, targets, d, max_bdeg=0, rests=rests)
        if found is not None:
            return {r + 1: P for r, P in enumerate(found[1]) if not P.is_zero()}
    return None


def minimize_by_oracle(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
    ctx: Optional[MeroContext] = None,
) -> BFunction:
    """Monic b' of least degree in 1 .. deg(b)-1 admitting the functional
    equation at (N, deg); b itself when none does.

    The caller has certified b at the same bounds, so b is the only monic
    solution of its own degree and the search stops below it.  Every
    solution is a multiple of the true minimal b, so b' never drops a root
    the equation needs.  Minimality at (N, deg) is proved by the root tests
    (`_roots_forced`) when b splits over Q and every root is forced, and
    by the joint search otherwise; either way the answer is the same.
    ctx is as in `verify_functional_equation`.
    """
    if b.degree() <= 1:
        return b
    if ctx is None:
        ctx = MeroContext(F, G)
    v0, targets, rests = context_targets(ctx, m, N)
    if b.roots is not None and _roots_forced(ctx, v0, targets, deg, rests, b.roots):
        return b
    found = minimal_b_search(
        ctx, v0, targets, deg, max_bdeg=b.degree() - 1, min_bdeg=1, rests=rests
    )
    return b if found is None else found[0]


def _roots_forced(
    ctx: MeroContext,
    v0: LaurentSection,
    targets: Sequence[LaurentSection],
    deg: int,
    rests: Rests,
    roots: Dict[object, int],
) -> bool:
    """Whether every b' with b'(s) v0 = sum_r P_r target_r at operator
    degree deg vanishes to order mult or more at each root of roots, a
    dict root -> mult.

    With nu = mult - 1, yes unless (s - root)^nu v0 lies in the span of the
    columns x^alpha (s - root)^j d^beta target_r, j <= nu, modulo (s -
    root)^(nu+1): one `least_monic` at b-degree 0 at the point (root, nu).
    One test covers every order k <= nu.  A b' = (s - root)^k c(s) with
    c(root) != 0 gives (s - root)^k v0 = sum_r P_r / c(root) target_r
    modulo (s - root)^(k+1); with the s^j of each P_r written in powers of
    s - root, the relation is among the columns with j <= k, and (s -
    root)^(nu-k) times it is one at nu.  The columns are those of the joint
    search with j bounded by nu, on the same tower elements, built once
    per nu.
    """
    columns: Dict[int, list] = {}
    for root, mult in roots.items():
        nu = mult - 1
        if nu not in columns:
            labelled = _columns(dict(enumerate(targets)), deg, context_lattice(ctx), v0, rests, nu)
            columns[nu] = [column for _, column in labelled]
        rhs = v0.scaled((ctx.s - root) ** nu) if nu else v0
        if least_monic([rhs], columns[nu], point=(root, nu)) is not None:
            return False
    return True


def prefactored_witness(
    b: BFunction, F: MultiPoly, G: MultiPoly, m: int, deg: int = DEFAULT_DEG
) -> Optional[WeylElement]:
    """P with b(s) f^s/G^m = G^2 P (f^{s+1}/G^m), re-applied, or None.

    G is a unit of the Laurent module, so this is b(s) f^s/G^(m+2) =
    P (f^{s+1}/G^m): a `minimal_b_search` at b-degree 0.
    """
    ctx = MeroContext(F, G)
    v0 = LaurentSection(ctx, b.poly.extend_to(ctx.ring), (0, m + 2))
    found = minimal_b_search(ctx, v0, [base_section(ctx, m, shift=1)], deg, max_bdeg=0)
    return None if found is None else found[1][0]


# -- minimal-b joint search ----------------------------------------------


def minimal_b_search(
    ctx: MeroContext,
    v0: LaurentSection,
    targets: Sequence[LaurentSection],
    opdeg: int,
    max_bdeg: int,
    min_bdeg: int = 0,
    rests: Optional[Rests] = None,
) -> Optional[Tuple[BFunction, List[WeylElement]]]:
    """Minimal monic b with b(s) v0 = sum_r P_r target_r, bounded search:
    each P_r is a combination of x^alpha s^j d^beta with |alpha| + |beta|
    <= opdeg and j <= opdeg.

    The b coefficients and the operator coefficients enter one joint
    linear system per candidate degree; degrees are tried in increasing
    order so the first hit has minimal degree within the operator bounds,
    and s^i v0 is built only when degree i is tried.  Any solution is a
    multiple of the true minimal b for the equation.  The operators are
    re-applied before they are returned.  rests, when given, are the
    targets' `_rest_weights` against v0.
    """
    columns = _columns(dict(enumerate(targets)), opdeg, context_lattice(ctx), v0, rests)
    powers = (v0.scaled(ctx.s ** i) for i in range(max_bdeg + 1))
    found = least_monic(powers, [column for _, column in columns], min_bdeg)
    if found is None:
        return None
    coeffs, values = found
    b = BFunction.from_poly(MultiPoly((S_VAR,), {(i,): c for i, c in enumerate(coeffs)}))
    ops = _operators(ctx, columns, values)
    _recheck_witness(v0.scaled(b.poly.extend_to(ctx.ring)), dict(enumerate(targets)), ops)
    return b, [ops.get(r, WeylElement.zero(ctx.sig)) for r in range(len(targets))]

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
operator degree, and `prefactored_witness` once, with G^2 moved to the
left as G^-2.

When (F, G) are jointly quasi-homogeneous the system splits into weight
blocks, and only the block of the target's weight is solved.  A column
x^alpha s^j d^beta target has its target's weight plus w.(alpha - beta),
so `_weight_rule` keeps the shifts alpha - beta with w.(alpha - beta) =
w(rhs) - w(target) for each w, and no column of another shift is built;
b(s) v0 has v0's weight at every degree of b.  This preserves
solvability in both directions because every column is
weight-homogeneous in x.  Each column is a shift of a derivative of its
target, and each derivative is imaged once per common denominator,
however many degrees of b are tried.  The derivatives and the weight
lattice belong to the MeroContext, so every search on one context, the
operator degrees of `verify_functional_equation` and the minimization in
`b_mero` among them, builds each derivative and the lattice once.
"""

from __future__ import annotations

from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .bfunction import BFunction, S_VAR
from .errors import CertificationError
from .multipoly import MultiPoly, unify
from .rationals import coprime_integers
from .sections import (
    LaurentSection,
    MeroContext,
    apply_operator,
    base_section,
    least_monic,
    operator_columns,
)
from .weyl import Exponent, WeylElement

DEFAULT_N = 3
DEFAULT_DEG = 6

# each column labelled (r, operator key), as (tower element, shift)
Columns = List[Tuple[Tuple[int, Exponent], Tuple[LaurentSection, Exponent]]]


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


# -- labelled columns and witnesses --------------------------------------


def _columns(
    targets: Dict[int, LaurentSection], deg: int, lattice: Sequence, rhs: LaurentSection
) -> Columns:
    """Sections (x^alpha s^j d^beta) target_r with |alpha| + |beta| <= deg
    and j <= deg, labelled (r, operator key), that `_weight_rule` keeps
    against rhs; the others are not built.  Every b(s) rhs has rhs's
    weight, so the same columns serve each degree of a b-function."""
    columns = []
    for r, target in targets.items():
        keep = _weight_rule(target, rhs, lattice)
        columns += [
            ((r, key), (elem, shift)) for key, elem, shift in operator_columns(target, deg, keep)
        ]
    return columns


def _weight_rule(base: LaurentSection, rhs: LaurentSection, lattice: Sequence):
    """Test on an operator's shift delta = alpha - beta: has the column
    it builds on base the w-weight of rhs, for each w in the lattice?  Its
    weight is base's plus w.delta; a weight of None, of base or of rhs,
    prunes nothing."""
    wanted = []
    for w in lattice:
        own, weight = base.weight(w), rhs.weight(w)
        if own is not None and weight is not None:
            wanted.append((w, weight - own))
    return lambda delta: all(sum(map(mul, w, delta)) == rest for w, rest in wanted)


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

    The degree bound grows from 1 up to deg and the search stops at the
    first success, so a None has exercised the full bounds.  Each degree
    is a `minimal_b_search` at b-degree 0 with b(s) f^s/G^m as v0; the
    operators that are not zero are returned.  ctx, when given, is a
    MeroContext of (F, G): the degrees, and other searches on it, share
    its derivative towers and weight lattice.
    """
    if ctx is None:
        ctx = MeroContext(*unify(F, G))
    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    targets = [base_section(ctx, m, shift=k) for k in range(1, N + 1)]
    for d in range(1, deg + 1):
        found = minimal_b_search(ctx, lhs, targets, d, max_bdeg=0)
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
    the equation needs.  ctx is as in `verify_functional_equation`.
    """
    if b.degree() <= 1:
        return b
    if ctx is None:
        ctx = MeroContext(*unify(F, G))
    targets = [base_section(ctx, m, shift=k) for k in range(1, N + 1)]
    found = minimal_b_search(
        ctx, base_section(ctx, m), targets, deg, max_bdeg=b.degree() - 1, min_bdeg=1
    )
    return b if found is None else found[0]


def prefactored_witness(
    b: BFunction, F: MultiPoly, G: MultiPoly, m: int, deg: int = DEFAULT_DEG
) -> Optional[WeylElement]:
    """P with b(s) f^s/G^m = G^2 P (f^{s+1}/G^m), re-applied, or None.

    G is a unit of the Laurent module, so this is b(s) f^s/G^(m+2) =
    P (f^{s+1}/G^m): a `minimal_b_search` at b-degree 0.
    """
    ctx = MeroContext(*unify(F, G))
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
) -> Optional[Tuple[BFunction, List[WeylElement]]]:
    """Minimal monic b with b(s) v0 = sum_r P_r target_r, bounded search:
    each P_r is a combination of x^alpha s^j d^beta with |alpha| + |beta|
    <= opdeg and j <= opdeg.

    The b coefficients and the operator coefficients enter one joint
    linear system per candidate degree; degrees are tried in increasing
    order so the first hit has minimal degree within the operator bounds,
    and s^i v0 is built only when degree i is tried.  Any solution is a
    multiple of the true minimal b for the equation.  The operators are
    re-applied before they are returned.
    """
    columns = _columns(dict(enumerate(targets)), opdeg, context_lattice(ctx), v0)
    powers = (v0.scaled(ctx.s ** i) for i in range(max_bdeg + 1))
    found = least_monic(powers, [column for _, column in columns], min_bdeg)
    if found is None:
        return None
    coeffs, values = found
    b = BFunction.from_poly(MultiPoly((S_VAR,), {(i,): c for i, c in enumerate(coeffs)}))
    ops = _operators(ctx, columns, values)
    _recheck_witness(v0.scaled(b.poly.extend_to(ctx.ring)), dict(enumerate(targets)), ops)
    return b, [ops.get(r, WeylElement.zero(ctx.sig)) for r in range(len(targets))]

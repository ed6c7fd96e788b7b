"""Brute-force functional-equation oracle.

Independent of the V-filtration engine: a candidate b(s) is checked by
searching for explicit operators P_k(s) with

    b(s) (f^s / G^m) = sum_{k=1}^{N} P_k(s) (f^{s+k} / G^m)

inside the Laurent module, as an exact rational linear system in the
unknown coefficients of the P_k.  Success yields a concrete witness, which
is re-verified by applying it; the same machinery also finds the minimal
monic b admitting such an equation against a prescribed list of target
sections (the one-term variant and the reduced equation are both of that
shape).

When (F, G) are jointly quasi-homogeneous the system splits into weight
blocks and columns of the wrong weight are discarded before solving; this
preserves solvability in both directions because every column is
weight-homogeneous in x.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .bfunction import BFunction, S_VAR
from .errors import CertificationError
from .multipoly import MultiPoly, unify
from .rationals import Q
from .sections import (
    LaurentSection,
    MeroContext,
    apply_operator,
    base_section,
    least_monic,
    operator_columns,
    solve,
)
from .weyl import Exponent, WeylElement

DEFAULT_N = 3
DEFAULT_DEG = 6

Columns = List[Tuple[Tuple[int, Exponent], LaurentSection]]


# -- quasi-homogeneity lattice -------------------------------------------


def weight_lattice(F: MultiPoly, G: MultiPoly) -> List[Tuple]:
    """Basis of the rational weight vectors w != 0 making F and G both
    w-homogeneous; empty when only w = 0 qualifies."""
    n = len(F.variables)
    rows = []
    for poly, dcol in ((F, n), (G, n + 1)):
        for exps in poly.terms:
            row = {i: Q(e) for i, e in enumerate(exps) if e}
            row[dcol] = Q(-1)
            rows.append(row)
    out = []
    for vec in linalg.nullspace(rows, n + 2):
        w = tuple(vec[:n])
        if any(c != 0 for c in w):
            out.append(w)
    return out


# -- labelled columns and witnesses --------------------------------------


def _columns(targets: Dict[int, LaurentSection], deg: int, sdeg: int) -> Columns:
    """Sections (x^alpha s^j d^beta) target_r, labelled (r, operator key)."""
    return [
        ((r, key), sec)
        for r, target in targets.items()
        for key, sec in operator_columns(target, deg, sdeg)
    ]


def _equation_columns(ctx: MeroContext, m: int, N: int, deg: int) -> Columns:
    """Columns of the functional equation: operators of degree <= deg on
    f^{s+k}/G^m, k = 1..N."""
    return _columns({k: base_section(ctx, m, shift=k) for k in range(1, N + 1)}, deg, deg)


def _operators(ctx: MeroContext, columns: Columns, values) -> Dict[int, WeylElement]:
    """The coefficients on the columns labelled (r, key) as one operator per
    r that has a nonzero one."""
    coeffs: Dict[int, Dict[Exponent, object]] = {}
    for ((r, key), _), value in zip(columns, values):
        if value != 0:
            coeffs.setdefault(r, {})[key] = value
    return {r: WeylElement(ctx.sig, terms) for r, terms in sorted(coeffs.items())}


def _lhs(b: BFunction, ctx: MeroContext, m: int) -> LaurentSection:
    return base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))


def _witness(
    b: BFunction, ctx: MeroContext, m: int, columns: Columns, lattice
) -> Optional[Dict[int, WeylElement]]:
    """{k: P_k} solving the equation on the given columns, re-applied."""
    values = solve(_lhs(b, ctx, m), [sec for _, sec in columns], lattice)
    if values is None:
        return None
    witness = _operators(ctx, columns, values)
    _recheck_witness(b, m, ctx, witness)
    return witness


def _recheck_witness(
    b: BFunction, m: int, ctx: MeroContext, witness: Dict[int, WeylElement]
) -> None:
    total: Optional[LaurentSection] = None
    for k, P in witness.items():
        part = apply_operator(P, base_section(ctx, m, shift=k))
        total = part if total is None else total + part
    if total is None or not total.section_eq(_lhs(b, ctx, m)):
        raise CertificationError("witness failed independent re-application")


# -- public oracle entry points ------------------------------------------


def verify_functional_equation(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
) -> Optional[Dict[int, WeylElement]]:
    """Witness {k: P_k} for b(s) f^s/G^m = sum_k P_k f^{s+k}/G^m, or None.

    The degree bound grows from 1 up to deg and the search stops at the
    first success, so a None has exercised the full bounds.
    """
    ctx = MeroContext(*unify(F, G))
    lattice = weight_lattice(ctx.F, ctx.G)
    for d in range(1, deg + 1):
        witness = _witness(b, ctx, m, _equation_columns(ctx, m, N, d), lattice)
        if witness is not None:
            return witness
    return None


def _first_passing_divisor(
    b: BFunction, ctx: MeroContext, m: int, columns: Columns, lattice
) -> Optional[BFunction]:
    """First b/(s-r), over the roots r in sorted order, that admits the
    functional equation on the full-bound columns; None when none does."""
    s = MultiPoly.var((S_VAR,), S_VAR)
    for root, _ in b.sorted_roots():
        quotient = b.poly.exact_quotient(s - MultiPoly.const((S_VAR,), root))
        if quotient.is_constant():
            continue
        cand = BFunction.from_poly(quotient)
        if _witness(cand, ctx, m, columns, lattice) is not None:
            return cand
    return None


def reject_maximal_divisors(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
) -> bool:
    """True iff every b/(s-r) fails the functional equation at full bounds."""
    if b.roots is None:
        raise ValueError("minimality check needs a split b-function")
    if b.degree() <= 1:
        return True
    ctx = MeroContext(*unify(F, G))
    columns = _equation_columns(ctx, m, N, deg)
    return _first_passing_divisor(b, ctx, m, columns, weight_lattice(ctx.F, ctx.G)) is None


def minimize_by_oracle(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
) -> BFunction:
    """Smallest monic divisor of b (by dropping roots) passing the oracle.

    Any polynomial admitting the functional equation is a multiple of the
    true minimal one, so shrinking while the oracle still certifies can
    only move toward (never past) the answer.  The full-bound columns are
    built once and serve every candidate.
    """
    if b.roots is None or b.degree() <= 1:
        return b
    ctx = MeroContext(*unify(F, G))
    columns = _equation_columns(ctx, m, N, deg)
    lattice = weight_lattice(ctx.F, ctx.G)
    while b.degree() > 1:
        smaller = _first_passing_divisor(b, ctx, m, columns, lattice)
        if smaller is None:
            break
        b = smaller
    return b


def prefactored_witness(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int,
    prefactor: MultiPoly,
    deg: int = DEFAULT_DEG,
) -> Optional[WeylElement]:
    """P with b(s) f^s/G^m = prefactor * P (f^{s+1}/G^m), or None."""
    ctx = MeroContext(*unify(F, G))
    pre = prefactor.extend_to(ctx.ring)
    columns = [
        (label, sec.scaled(pre))
        for label, sec in _columns({1: base_section(ctx, m, shift=1)}, deg, deg)
    ]
    values = solve(_lhs(b, ctx, m), [sec for _, sec in columns], weight_lattice(ctx.F, ctx.G))
    if values is None:
        return None
    return _operators(ctx, columns, values)[1]


# -- minimal-b joint search ----------------------------------------------


def minimal_b_search(
    ctx: MeroContext,
    v0: LaurentSection,
    targets: Sequence[LaurentSection],
    opdeg: int,
    sdeg: int,
    max_bdeg: int,
    min_bdeg: int = 0,
) -> Optional[Tuple[BFunction, List[WeylElement]]]:
    """Minimal monic b with b(s) v0 = sum_r P_r target_r, bounded search.

    The b coefficients and the operator coefficients enter one joint
    linear system per candidate degree; degrees are tried in increasing
    order so the first hit has minimal degree within the operator bounds.
    Any solution is a multiple of the true minimal b for the equation.
    """
    columns = _columns(dict(enumerate(targets)), opdeg, sdeg)
    powers = [v0.scaled(ctx.s ** i) for i in range(max_bdeg + 1)]
    found = least_monic(
        powers, [sec for _, sec in columns], weight_lattice(ctx.F, ctx.G), min_bdeg
    )
    if found is None:
        return None
    coeffs, values = found
    b = BFunction.from_poly(MultiPoly((S_VAR,), {(i,): c for i, c in enumerate(coeffs)}))
    ops = _operators(ctx, columns, values)
    return b, [ops.get(r, WeylElement.zero(ctx.sig)) for r in range(len(targets))]

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
from .multipoly import MultiPoly, unify
from .rationals import ONE, Q, ZERO
from .sections import (
    LaurentSection,
    MeroContext,
    apply_operator,
    base_section,
    operator_columns,
)
from .weyl import Exponent, WeylElement

DEFAULT_N = 3
DEFAULT_DEG = 6


# -- quasi-homogeneity lattice -------------------------------------------


def weight_lattice(F: MultiPoly, G: MultiPoly) -> List[Tuple[Tuple, object, object]]:
    """Basis of rational weight vectors w making F and G both w-homogeneous.

    Returns triples (w, d1, d2) with e.w = d1 on supp F and e.w = d2 on
    supp G; empty when only w = 0 qualifies.
    """
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
            out.append((w, vec[n], vec[n + 1]))
    return out


def _numerator_weight(poly: MultiPoly, w: Sequence, nx: int):
    """x-weight of a w-homogeneous polynomial; None when mixed."""
    seen = None
    for exps in poly.terms:
        val = ZERO
        for wi, e in zip(w, exps[:nx]):
            if e:
                val = val + wi * e
        if seen is None:
            seen = val
        elif seen != val:
            return None
    return seen


# -- system assembly and solve -------------------------------------------


def _solve_sections(
    rhs: LaurentSection,
    columns: List[Tuple[object, LaurentSection]],
    lattice: List[Tuple[Tuple, object, object]],
) -> Optional[Dict[object, object]]:
    """Solve sum_i c_i col_i = rhs exactly; returns nonzero coefficients."""
    ctx = rhs.ctx
    nx = len(ctx.xvars)
    rhs = rhs.renormalize()
    cols = [(label, sec.renormalize()) for label, sec in columns]
    a = max([rhs.fpow] + [sec.fpow for _, sec in cols])
    b = max([rhs.gpow] + [sec.gpow for _, sec in cols])
    rhs_num = rhs.cleared_numerator(a, b)
    cleared = [(label, sec.cleared_numerator(a, b)) for label, sec in cols]
    cleared = [(label, num) for label, num in cleared if not num.is_zero()]
    for w, _, _ in lattice:
        target = _numerator_weight(rhs_num, w, nx)
        if target is None:
            continue
        kept = []
        for label, num in cleared:
            weight = _numerator_weight(num, w, nx)
            if weight is None or weight == target:
                kept.append((label, num))
        cleared = kept
    rows, rhs_vec = linalg.identity_system([num.terms for _, num in cleared], rhs_num.terms)
    solution = linalg.solve(rows, rhs_vec, len(cleared))
    if solution is None:
        return None
    return {
        label: value
        for (label, _), value in zip(cleared, solution)
        if value != 0
    }


# -- public oracle entry points ------------------------------------------


def verify_functional_equation(
    b: BFunction,
    F: MultiPoly,
    G: MultiPoly,
    m: int = 0,
    N: int = DEFAULT_N,
    deg: int = DEFAULT_DEG,
    incremental: bool = True,
) -> Optional[Dict[int, WeylElement]]:
    """Witness {k: P_k} for b(s) f^s/G^m = sum_k P_k f^{s+k}/G^m, or None.

    With incremental=True the search grows the degree bound from 1 up to
    deg and stops at the first success (cheap certification); rejection
    claims should pass incremental=False so the full bounds are exercised.
    """
    ctx = MeroContext(*unify(F, G))
    lattice = weight_lattice(ctx.F, ctx.G)
    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    schedule = list(range(1, deg + 1)) if incremental else [deg]
    for d in schedule:
        columns: List[Tuple[object, LaurentSection]] = []
        for k in range(1, N + 1):
            base = base_section(ctx, m, shift=k).renormalize()
            for key, sec in operator_columns(base, d, d):
                columns.append(((k, key), sec))
        solution = _solve_sections(lhs, columns, lattice)
        if solution is None:
            continue
        witness: Dict[int, Dict[Exponent, object]] = {}
        for (k, key), value in solution.items():
            witness.setdefault(k, {})[key] = value
        result = {k: WeylElement(ctx.sig, coeffs) for k, coeffs in sorted(witness.items())}
        _recheck_witness(b, m, ctx, result)
        return result
    return None


def _recheck_witness(
    b: BFunction, m: int, ctx: MeroContext, witness: Dict[int, WeylElement]
) -> None:
    from .errors import CertificationError

    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    total: Optional[LaurentSection] = None
    for k, P in witness.items():
        part = apply_operator(P, base_section(ctx, m, shift=k))
        total = part if total is None else total + part
    if total is None or not total.section_eq(lhs):
        raise CertificationError("witness failed independent re-application")


def _first_passing_divisor(
    b: BFunction, F: MultiPoly, G: MultiPoly, m: int, N: int, deg: int
) -> Optional[BFunction]:
    """First b/(s-r), over the roots r in sorted order, that admits the
    functional equation at full bounds; None when none does."""
    s = MultiPoly.var((S_VAR,), S_VAR)
    for root, _ in b.sorted_roots():
        quotient = b.poly.exact_quotient(s - MultiPoly.const((S_VAR,), root))
        if quotient.is_constant():
            continue
        cand = BFunction.from_poly(quotient)
        if verify_functional_equation(cand, F, G, m, N, deg, incremental=False) is not None:
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
    return _first_passing_divisor(b, F, G, m, N, deg) is None


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
    only move toward (never past) the answer.
    """
    if b.roots is None:
        return b
    while b.degree() > 1:
        smaller = _first_passing_divisor(b, F, G, m, N, deg)
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
    lattice = weight_lattice(ctx.F, ctx.G)
    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    pre = prefactor.extend_to(ctx.ring)
    base = base_section(ctx, m, shift=1).renormalize()
    columns = [
        (key, sec.scaled(pre)) for key, sec in operator_columns(base, deg, deg)
    ]
    solution = _solve_sections(lhs, columns, lattice)
    if solution is None:
        return None
    return WeylElement(ctx.sig, solution)


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
    lattice = weight_lattice(ctx.F, ctx.G)
    op_columns: List[Tuple[object, LaurentSection]] = []
    for r, target in enumerate(targets):
        for key, sec in operator_columns(target.renormalize(), opdeg, sdeg):
            op_columns.append((("op", r, key), sec))
    for bdeg in range(min_bdeg, max_bdeg + 1):
        s_pow = MultiPoly(ctx.ring, {(0,) * len(ctx.xvars) + (bdeg,): ONE})
        rhs = v0.scaled(-s_pow)
        columns = [
            (("b", i), v0.scaled(MultiPoly(ctx.ring, {(0,) * len(ctx.xvars) + (i,): ONE})))
            for i in range(bdeg)
        ] + op_columns
        solution = _solve_sections(rhs, columns, lattice)
        if solution is None:
            continue
        b_terms = {(bdeg,): ONE}
        ops: List[Dict[Exponent, object]] = [dict() for _ in targets]
        for label, value in solution.items():
            if label[0] == "b":
                b_terms[(label[1],)] = value
            else:
                ops[label[1]][label[2]] = -value
        b = BFunction.from_poly(MultiPoly((S_VAR,), b_terms))
        return b, [WeylElement(ctx.sig, coeffs) for coeffs in ops]
    return None

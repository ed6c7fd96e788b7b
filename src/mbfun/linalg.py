"""Sparse exact linear algebra over the rationals.

Rows are dicts column -> coefficient.  Deterministic pivoting (lowest
column index first) so repeated runs produce identical witnesses.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .rationals import ONE, Q, ZERO

Row = Dict[int, object]
Terms = Mapping[Tuple[int, ...], object]


def identity_system(
    columns: Sequence[Terms], rhs: Optional[Terms] = None
) -> Tuple[List[Row], List[object]]:
    """Rows and right-hand side of sum_i c_i columns[i] = rhs.

    Columns and rhs are polynomials given as exponent -> coefficient dicts;
    the identity gives one equation per monomial, in sorted monomial order.
    """
    rhs = rhs or {}
    equations: Dict[Tuple[int, ...], Row] = {}
    for idx, terms in enumerate(columns):
        for mono, coeff in terms.items():
            equations.setdefault(mono, {})[idx] = coeff
    for mono in rhs:
        equations.setdefault(mono, {})
    monos = sorted(equations)
    return [equations[mono] for mono in monos], [rhs.get(mono, ZERO) for mono in monos]


def _reduce_row(row: Row, rhs, pivots: Dict[int, Tuple[Row, object]]):
    row = dict(row)
    for col in sorted(row):
        if col in pivots and col in row:
            factor = row[col]
            prow, prhs = pivots[col]
            for c, v in prow.items():
                acc = row.get(c, ZERO) - factor * v
                if acc == 0:
                    row.pop(c, None)
                else:
                    row[c] = acc
            rhs = rhs - factor * prhs
    return row, rhs


def solve(rows: Sequence[Row], rhs: Sequence, ncols: int) -> Optional[List[object]]:
    """One solution of A x = b (free variables set to zero), or None."""
    pivots: Dict[int, Tuple[Row, object]] = {}
    for row, b in zip(rows, rhs):
        row, b = _reduce_row(row, Q(b), pivots)
        if not row:
            if b != 0:
                return None
            continue
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        b = b * inv
        pivots[col] = (row, b)
        # keep pivot rows mutually reduced lazily; final back-substitution below
    solution = [ZERO] * ncols
    for col in sorted(pivots, reverse=True):
        row, b = pivots[col]
        acc = b
        for c, v in row.items():
            if c != col:
                acc = acc - v * solution[c]
        solution[col] = acc
    # verify (cheap relative to elimination, guards against logic slips)
    for row, b in zip(rows, rhs):
        total = ZERO
        for c, v in row.items():
            total = total + v * solution[c]
        if total != Q(b):
            return None
    return solution


def nullspace(rows: Sequence[Row], ncols: int) -> List[List[object]]:
    """Basis of the right nullspace of A."""
    pivots: Dict[int, Tuple[Row, object]] = {}
    for row in rows:
        row, _ = _reduce_row(row, ZERO, pivots)
        if not row:
            continue
        col = min(row)
        inv = 1 / row[col]
        pivots[col] = ({c: v * inv for c, v in row.items()}, ZERO)
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for free in free_cols:
        vec = [ZERO] * ncols
        vec[free] = ONE
        for col in sorted(pivots, reverse=True):
            row, _ = pivots[col]
            acc = ZERO
            for c, v in row.items():
                if c != col:
                    acc = acc - v * vec[c]
            vec[col] = acc
        basis.append(vec)
    return basis

"""Sparse exact linear algebra over the rationals.

Rows are dicts column -> coefficient.  Elimination is fraction-free: each
row is scaled to coprime integers and reduced by integer combinations, so
rationals appear only in back-substitution.  Every pivot sits at its row's
lowest column, and the pivot columns are therefore those of the reduced
echelon form; with free variables set to zero the solution is unique, and
repeated runs produce identical witnesses.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import CertificationError
from .rationals import ONE, ZERO, coprime_integers, div

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


def _reduce_row(row: Row, pivots: Dict[int, Row]) -> Row:
    """A primitive integer row that, with the pivot rows, spans what the
    given one does, and has no pivot column left.  The given dict may be
    reused.

    Fraction-free: the row is reduced against the pivot row of the smallest
    pivot column it contains, r <- (p/g) r - (a/g) prow with a, p its entry
    and the pivot and g = gcd(a, p), until none is left.  Fill-in columns
    of pivot rows lie above their pivots, so the columns reduced increase.
    """
    row = coprime_integers(row)
    todo = [c for c in row if c in pivots]
    heapify(todo)
    while todo:
        col = heappop(todo)
        a = row.get(col)
        if a is None:
            continue
        prow = pivots[col]
        p = prow[col]
        g = gcd(a, p)
        fa, fp = p // g, a // g
        if fa != 1:
            row = {c: v * fa for c, v in row.items()}
        for c, v in prow.items():
            acc = row.get(c)
            if acc is None:
                row[c] = -fp * v
                if c in pivots:
                    heappush(todo, c)
            else:
                acc -= fp * v
                if acc:
                    row[c] = acc
                else:
                    del row[c]
    return coprime_integers(row) if row else row


def _sparsest_first(rows: Sequence[Row]) -> List[int]:
    """Row indices by number of entries, ties in input order.  Short rows
    make short pivot rows, which keeps fill-in down; the order changes
    neither the pivot columns nor the solution."""
    return sorted(range(len(rows)), key=lambda i: len(rows[i]))


def _back_substitute(pivots: Dict[int, Row], values: List[object]) -> None:
    """Fill the pivot entries of values, last pivot first, so that every
    pivot row (its entry at column len(values), if any, is the right-hand
    side) holds; the other entries stay as given."""
    rhs_col = len(values)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        acc = row.get(rhs_col, ZERO)
        for c, v in row.items():
            if c != col and c != rhs_col:
                acc -= v * values[c]
        values[col] = div(acc, row[col])


def solve(rows: Sequence[Row], rhs: Sequence, ncols: int) -> Optional[List[object]]:
    """One solution of A x = b (free variables set to zero), or None when
    there is none.

    The right-hand side rides along as column ncols, so a row that reduces
    to that column alone proves the system inconsistent.  Every solution is
    checked against the input; a failed check raises CertificationError.
    """
    pivots: Dict[int, Row] = {}
    for i in _sparsest_first(rows):
        aug = dict(rows[i])
        if rhs[i] != 0:
            aug[ncols] = rhs[i]
        aug = _reduce_row(aug, pivots)
        if aug:
            col = min(aug)
            if col == ncols:
                return None
            pivots[col] = aug
    solution: List[object] = [ZERO] * ncols
    _back_substitute(pivots, solution)
    for row, b in zip(rows, rhs):
        if sum((v * solution[c] for c, v in row.items()), ZERO) != b:
            raise CertificationError("elimination produced a non-solution")
    return solution


def nullspace(rows: Sequence[Row], ncols: int) -> List[List[object]]:
    """Basis of the right nullspace of A: one vector per free column, 1
    there and 0 at the other free columns."""
    pivots: Dict[int, Row] = {}
    for i in _sparsest_first(rows):
        row = _reduce_row(dict(rows[i]), pivots)
        if row:
            pivots[min(row)] = row
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec: List[object] = [ZERO] * ncols
            vec[free] = ONE
            _back_substitute(pivots, vec)
            basis.append(vec)
    return basis

"""Exact sparse elimination against sympy's rank, on small seeded systems."""

import random
from fractions import Fraction

import pytest
import sympy

from mbfun import linalg

SYSTEMS = 300


def random_system(rng):
    """A sparse rows x cols matrix with entries in -3..3, about one in six
    of them divided by 2 or 3, and a right-hand side that is A x for a
    random x half of the time and random otherwise."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)

    def entry():
        value = rng.randint(-3, 3) if rng.random() < 0.6 else 0
        if value and rng.random() < 0.17:
            return Fraction(value, rng.choice((2, 3)))
        return value

    dense = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.5:
        x = [rng.randint(-2, 2) for _ in range(ncols)]
        b = [sum(a * xi for a, xi in zip(row, x)) for row in dense]
    else:
        b = [entry() for _ in range(nrows)]
    rows = [{c: v for c, v in enumerate(row) if v != 0} for row in dense]
    return dense, rows, b, ncols


def rank(dense):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in dense]).rank()


def test_fill_in_pivot_is_reduced():
    # Eliminated in input order, row 2 minus row 0 brings in column 1,
    # itself a pivot; an elimination that skips it finds no solution.
    assert linalg.solve([{0: 1, 1: 1, 2: 1}, {1: 1}, {0: 1}], [2, 1, 0], 3) == [0, 1, 1]
    # Rows of equal length keep their order: row 2 minus row 0 leaves
    # column 2, the pivot of row 1, as its lowest column.
    rows = [{0: 1, 2: 1}, {2: 1, 3: 1}, {0: 1, 3: 1}]
    assert linalg.solve(rows, [1, 2, 1], 4) == [0, 0, 1, 1]
    assert linalg.nullspace(rows, 4) == [[0, 1, 0, 0]]


def test_solve_matches_rank_criterion():
    rng = random.Random(20260823)
    outcomes = {True: 0, False: 0}
    for _ in range(SYSTEMS):
        dense, rows, b, ncols = random_system(rng)
        solvable = rank(dense) == rank([row + [bi] for row, bi in zip(dense, b)])
        x = linalg.solve(rows, b, ncols)
        assert (x is not None) == solvable, (dense, b)
        outcomes[solvable] += 1
        if x is not None:
            for row, bi in zip(dense, b):
                assert sum(a * xi for a, xi in zip(row, x)) == bi
            assert all(isinstance(xi, (int, Fraction)) for xi in x)
            # free variables are zero, so the solution is unique
            assert linalg.solve(rows[::-1], b[::-1], ncols) == x
    assert min(outcomes.values()) > SYSTEMS // 10


def test_nullspace_is_a_kernel_basis():
    rng = random.Random(7)
    for _ in range(SYSTEMS):
        dense, rows, _, ncols = random_system(rng)
        basis = linalg.nullspace(rows, ncols)
        assert len(basis) == ncols - rank(dense)
        for vec in basis:
            for row in dense:
                assert sum(a * v for a, v in zip(row, vec)) == 0
        if basis:
            assert rank(basis) == len(basis)


def test_failed_check_raises(monkeypatch):
    # A reduction that corrupts the right-hand side yields a wrong solution,
    # which the final check must refuse rather than report as unsolvable.
    real = linalg._reduce_row

    def corrupting(row, pivots):
        out = dict(real(row, pivots))
        out[max(out)] += 1
        return out

    monkeypatch.setattr(linalg, "_reduce_row", corrupting)
    with pytest.raises(ArithmeticError):
        linalg.solve([{0: 1}], [1], 1)

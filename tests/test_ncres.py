"""Normal-crossing chart combinatorics."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun.ncres import (
    NCChart,
    bound_set,
    charts_from_json,
    check_lemma4,
    eigenvalue_classes,
    member,
    roots_nc,
)
from mbfun.merobf import b_mero
from mbfun.parser import parse_poly
from mbfun.rationals import Q


def chart(a, b, kappa=None):
    kappa = kappa or (0,) * len(a)
    return NCChart("q", tuple(a), tuple(b), tuple(kappa))


class TestRoots:
    def test_cusp_over_square(self):
        assert roots_nc(chart((3, 0), (0, 2)), 0) == {Q(-1), Q(-2, 3), Q(-1, 3)}

    def test_positive_member_for_positive_m(self):
        assert roots_nc(chart((2,), (1,)), 2) == {Q(1)}

    def test_only_second_index_qualifies(self):
        assert roots_nc(chart((0, 1), (1, 0)), 5) == {Q(-1)}

    def test_empty_when_no_excess(self):
        assert roots_nc(chart((1, 1), (2, 3)), 4) == set()

    def test_m_zero_roots_sit_in_unit_interval(self):
        for a in range(1, 5):
            for b in range(0, a):
                for r in roots_nc(chart((a,), (b,)), 0):
                    assert Q(-1) <= r < 0

    def test_kappa_shifts_the_candidates(self):
        # the last exceptional divisor of the cusp's minimal log resolution
        # carries (a, b, kappa) = (6, 3, 4) for (x^2+y^3)/x, and its
        # candidates at m = 1 are the roots of b_mero
        roots = roots_nc(chart((6,), (3,), (4,)), 1)
        assert roots == {Q(-2, 3), Q(-1), Q(-4, 3)}
        F, G = parse_poly("x^2+y^3", ("x", "y")), parse_poly("x", ("x", "y"))
        assert set(b_mero(F, G, 1).b.roots) == roots

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            chart((0, 0), (0, 0))
        with pytest.raises(ValueError):
            NCChart("q", (1,), (0, 0), (0,))


class TestBoundSet:
    def test_union_of_charts(self):
        B = bound_set([chart((2,), (0,)), chart((3,), (0,))], 0)
        assert B == frozenset(
            {Q(-1, 2), Q(-1), Q(-1, 3), Q(-2, 3)}
        )

    def test_membership_with_shift(self):
        B = frozenset({Q(-1, 3)})
        assert member(B, Q(-7, 3))       # shift by 2
        assert not member(B, Q(-2, 3))   # wrong direction

    def test_membership_from_positive_residue(self):
        B = frozenset({Q(1)})
        assert member(B, Q(0)) and member(B, Q(1))
        assert not member(B, Q(2))

    def test_empty_bound_set_never_matches(self):
        B = bound_set([chart((1, 1), (2, 3))], 0)
        assert not member(B, Q(-1))

    @given(
        st.sets(st.fractions(min_value=-3, max_value=3), max_size=5).map(
            lambda s: frozenset(Q(f.numerator, f.denominator) for f in s)
        ),
        st.sets(st.fractions(min_value=-3, max_value=3), max_size=5).map(
            lambda s: frozenset(Q(f.numerator, f.denominator) for f in s)
        ),
        st.fractions(min_value=-5, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_member_monotone_under_union(self, r1, r2, f):
        r = Q(f.numerator, f.denominator)
        small = r1
        big = r1 | r2
        if member(small, r):
            assert member(big, r)


class TestEigenvalueClasses:
    def test_fractional_parts(self):
        assert eigenvalue_classes([Q(-1, 3), Q(-2, 3), Q(-1)]) == {
            Q(0),
            Q(1, 3),
            Q(2, 3),
        }

    def test_deduplication(self):
        assert eigenvalue_classes([Q(1), Q(-1)]) == {Q(0)}

    def test_kappa_leaves_the_classes(self):
        # kappa_i shifts the numerators m b_i - k of a full residue system
        # mod a_i - b_i
        charts = [((6,), (3,), (4,)), ((2, 5), (1, 0), (1, 3)), ((3, 1), (0, 2), (2, 7))]
        for a, b, kappa in charts:
            for m in range(3):
                shifted = bound_set([chart(a, b, kappa)], m)
                plain = bound_set([chart(a, b)], m)
                assert shifted != plain
                assert eigenvalue_classes(shifted) == eigenvalue_classes(plain)

    @given(
        st.fractions(min_value=-4, max_value=4),
        st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, f, k):
        r = Q(f.numerator, f.denominator)
        assert eigenvalue_classes([r]) == eigenvalue_classes([r + Q(k)])


class TestLemma4Check:
    def test_identical_sets(self):
        assert check_lemma4([Q(-1)], [Q(-1)], 5) == (True, 0)

    def test_needs_shift(self):
        assert check_lemma4([Q(-7, 3)], [Q(-1, 3)], 5) == (True, 2)

    def test_incompatible_residues(self):
        assert check_lemma4([Q(-1, 2)], [Q(-1, 3)], 5) == (False, None)


class TestChartJSON:
    def test_round_trip_is_bit_exact(self):
        charts = [chart((3, 0), (0, 2), (1, 0)), chart((1,) * 2, (0, 0))]
        text = json.dumps({"charts": [
            {"label": "q", "a": [3, 0], "b": [0, 2], "kappa": [1, 0]},
            {"label": "q", "a": [1, 1], "b": [0, 0], "kappa": [0, 0]},
        ]})
        assert charts_from_json(text) == charts

    def test_malformed_file_rejected(self):
        with pytest.raises(ValueError):
            charts_from_json("[1, 2, 3]")

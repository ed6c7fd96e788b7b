"""Multiplier ideals on normal-crossing data and jumping numbers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbfun.multiplier import check_cor_jump, jumping_numbers_nc, multiplier_ideal_nc
from mbfun.ncres import NCChart
from mbfun.rationals import Q, div
from bfunction_helpers import b_from_roots


def chart(a, b):
    return NCChart("q", tuple(a), tuple(b), (0,) * len(a))


class TestMultiplierIdeal:
    def test_below_first_threshold_is_full(self):
        assert multiplier_ideal_nc(chart((2,), (0,)), Q(1, 4)).generators == ((0,),)

    def test_integer_threshold_is_strict(self):
        assert multiplier_ideal_nc(chart((2,), (0,)), Q(1, 2)).generators == ((1,),)

    def test_denominator_coordinate_is_exempt(self):
        ideal = multiplier_ideal_nc(chart((3, 0), (0, 2)), Q(2, 3))
        assert ideal.generators == ((2, 0),)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            multiplier_ideal_nc(chart((2,), (0,)), Q(0))

    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.fractions(min_value="1/6", max_value=3),
        st.fractions(min_value="1/6", max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_alpha(self, a, b, f1, f2):
        if a == 0 and b == 0:
            a = 1
        c = chart((a,), (b,))
        lo = Q(min(f1, f2).numerator, min(f1, f2).denominator)
        hi = Q(max(f1, f2).numerator, max(f1, f2).denominator)
        (g_lo,) = multiplier_ideal_nc(c, lo).generators
        (g_hi,) = multiplier_ideal_nc(c, hi).generators
        # x^g_hi lies in (x^g_lo): the ideal at hi is the smaller one
        assert all(u <= v for u, v in zip(g_lo, g_hi))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_depends_only_on_positive_excess(self, a, b, extra):
        if a == 0 and b == 0:
            a = 1
        alpha = Q(3, 4)
        shifted = chart((a + extra,), (b + extra,))
        if max(a + extra - (b + extra), 0) == max(a - b, 0):
            assert (
                multiplier_ideal_nc(chart((a,), (b,)), alpha).generators
                == multiplier_ideal_nc(shifted, alpha).generators
            )


class TestJumpingNumbers:
    def test_double_point(self):
        report = jumping_numbers_nc(chart((2,), (0,)), Q(1))
        assert list(report.jumps) == [Q(1, 2), Q(1)]
        assert report.lct == Q(1, 2)

    def test_cusp_over_square(self):
        report = jumping_numbers_nc(chart((3, 0), (0, 2)), Q(1))
        assert list(report.jumps) == [Q(1, 3), Q(2, 3), Q(1)]

    def test_swapped_pair(self):
        report = jumping_numbers_nc(chart((0, 1), (1, 0)), Q(2))
        assert list(report.jumps) == [Q(1), Q(2)]

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=3),
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_ideals_strictly_shrink(self, a, b):
        b = b[: len(a)]
        if not any(x > y for x, y in zip(a, b)):
            a[0] = b[0] + 1
        c = chart(a, b)
        report = jumping_numbers_nc(c)
        # full below the first threshold
        assert multiplier_ideal_nc(c, div(report.lct, 2)).generators == ((0,) * len(a),)
        below = 0
        for jump, ideal in zip(report.jumps, report.ideals):
            (before,) = multiplier_ideal_nc(c, div(below + jump, 2)).generators
            (here,) = ideal.generators
            # strictly smaller at the jump, and constant on [below, jump)
            assert all(u <= v for u, v in zip(before, here)) and before != here
            if below:
                assert multiplier_ideal_nc(c, below).generators == (before,)
            below = jump

    def test_default_upper_covers_shifted_jumps(self):
        report = jumping_numbers_nc(chart((3, 0), (0, 2)))
        assert max(report.jumps) >= Q(1)


class TestMembershipAndRootComparison:
    def test_jump_root_comparison_holds(self):
        report = jumping_numbers_nc(chart((2,), (0,)), Q(1))
        b0 = b_from_roots({Q(-1, 2): 1, Q(-1): 1})
        assert check_cor_jump(report, b0)

    def test_jump_root_comparison_detects_mismatch(self):
        report = jumping_numbers_nc(chart((2,), (0,)), Q(1))
        wrong = b_from_roots({Q(-1): 1})
        assert not check_cor_jump(report, wrong)

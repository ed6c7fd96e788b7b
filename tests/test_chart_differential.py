"""The chart layer against its comparison-loop form, on seeded random data.

`jumping_numbers_nc` once found the jumps by building the multiplier ideal
at every candidate k/c_i and keeping the candidates where it strictly
shrank against the one before; `check_cor_jump` and `check_lemma4` tested
"q - r is a nonnegative integer" each their own way, the latter by trying
l = 0, 1, ... l_cap in turn.  The reference functions below are those
forms, kept here as the test oracle: on every chart and residue set the
package must give the same jumps, ideal generators, lct, CLI payload
and ValueError text, and the same verdicts.
"""

import math
import random
from fractions import Fraction

import pytest

from mbfun.bfunction import BFunction
from mbfun.cli import _jump_payload
from mbfun.multiplier import check_cor_jump, jumping_numbers_nc
from mbfun.multipoly import MultiPoly
from mbfun.ncres import NCChart, check_lemma4
from mbfun.rationals import Q, format_ratio
from bfunction_helpers import b_from_roots

SEED = 20261019


# -- the comparison-loop reference ----------------------------------------


def ref_generator(chart, alpha):
    """Generator exponent of the multiplier ideal at level alpha."""
    if any(chart.kappa):
        raise ValueError(
            f"chart {chart.label} has kappa != 0; multiplier ideals here cover "
            "only the identity resolution, where kappa = 0"
        )
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return tuple(
        math.floor(alpha * (ai - bi)) if ai > bi else 0 for ai, bi in zip(chart.a, chart.b)
    )


def ref_default_upper(chart):
    cpos = [ai - bi for ai, bi in zip(chart.a, chart.b) if ai > bi]
    return Q(len(chart.a) + (max(cpos) if cpos else 0))


def ref_contains(outer, inner):
    """Principal monomial ideals by their generators: outer ⊇ inner."""
    return all(u >= g for u, g in zip(inner, outer))


def ref_jumping_numbers(chart, upper=None):
    """(jumps, generators, lct) by comparing each candidate's ideal with
    the one before."""
    if upper is None:
        upper = ref_default_upper(chart)
    if upper <= 0:
        raise ValueError("upper must be positive")
    candidates = set()
    for ai, bi in zip(chart.a, chart.b):
        c = ai - bi
        k = 1
        while c > 0 and Q(k, c) <= upper:
            candidates.add(Q(k, c))
            k += 1
    jumps, gens, prev = [], [], (0,) * len(chart.a)
    for alpha in sorted(candidates):
        here = ref_generator(chart, alpha)
        if ref_contains(prev, here) and not ref_contains(here, prev):
            jumps.append(alpha)
            gens.append(here)
        prev = here
    if not jumps:
        raise ValueError("no jumping numbers at or below the requested upper bound")
    return jumps, gens, jumps[0]


def ref_check_cor_jump(jumps, lct, b0):
    if b0.roots is None:
        return False
    targets = set(b0.roots)
    for alpha in jumps:
        if not any(alpha + r >= 0 and alpha + r == int(alpha + r) for r in targets):
            return False
    return lct == -max(targets)


def ref_check_lemma4(small, big, l_cap):
    small, big = set(small), set(big)
    for l in range(l_cap + 1):
        if small <= {r - Q(i) for r in big for i in range(l + 1)}:
            return True, l
    return False, None


# -- random data ----------------------------------------------------------


def random_chart(rng):
    n = rng.randint(1, 3)
    while True:
        a = tuple(rng.randint(0, 6) for _ in range(n))
        b = tuple(rng.randint(0, 6) for _ in range(n))
        if any(a) or any(b):
            break
    kappa = tuple(rng.randint(0, 2) for _ in range(n)) if rng.random() < 0.1 else (0,) * n
    return NCChart("q", a, b, kappa)


def random_upper(rng):
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.5:
        return Q(rng.randint(-2, 0))
    return Q(rng.randint(1, 20), rng.randint(1, 6))


def random_residues(rng, size):
    return [Q(rng.randint(-12, 4), rng.randint(1, 4)) for _ in range(size)]


def outcome(compute):
    try:
        return "ok", compute()
    except ValueError as exc:
        return "error", str(exc)


# -- the differential checks ----------------------------------------------


def test_jumps_match_the_comparison_loop():
    rng = random.Random(SEED)
    seen = {"ok": 0, "error": 0}
    for _ in range(600):
        chart, upper = random_chart(rng), random_upper(rng)
        kind, ref = outcome(lambda: ref_jumping_numbers(chart, upper))
        got_kind, report = outcome(lambda: jumping_numbers_nc(chart, upper))
        seen[kind] += 1
        assert got_kind == kind, (chart, upper, report)
        if kind == "error":
            assert report == ref, (chart, upper)
            continue
        jumps, gens, lct = ref
        assert list(report.jumps) == jumps, (chart, upper)
        assert [ideal.generators for ideal in report.ideals] == [(g,) for g in gens]
        assert report.lct == lct
        assert _jump_payload(report) == {
            "jumps": [format_ratio(j) for j in jumps],
            "lct": format_ratio(lct),
        }
    assert seen["ok"] > 300 and seen["error"] > 30, seen


@pytest.mark.parametrize(
    "a, b, kappa, upper, message",
    [
        ((6,), (3,), (4,), None, "kappa != 0"),
        ((1, 1), (2, 3), (0, 0), None, "no jumping numbers"),
        ((1, 1), (2, 3), (1, 0), None, "no jumping numbers"),   # before kappa
        ((6,), (3,), (4,), Q(0), "upper must be positive"),    # before kappa
        ((2,), (0,), (0,), Q(-1), "upper must be positive"),
        ((2,), (0,), (0,), Q(1, 3), "no jumping numbers"),
    ],
)
def test_error_text_and_order(a, b, kappa, upper, message):
    chart = NCChart("E", a, b, kappa)
    kind, ref = outcome(lambda: ref_jumping_numbers(chart, upper))
    assert kind == "error" and message in ref
    with pytest.raises(ValueError) as info:
        jumping_numbers_nc(chart, upper)
    assert str(info.value) == ref


def test_cor_jump_matches_the_reference():
    rng = random.Random(SEED + 1)
    s = MultiPoly.var(("s",), "s")
    unsplit = BFunction.from_poly(s * s + 1)
    verdicts = set()
    for _ in range(400):
        chart = random_chart(rng)
        chart = NCChart("q", chart.a, chart.b, (0,) * len(chart.a))
        kind, report = outcome(lambda: jumping_numbers_nc(chart, random_upper(rng)))
        if kind == "error":
            continue
        # roots near the jumps' negatives, so that both verdicts occur
        near = rng.sample(report.jumps, min(2, len(report.jumps)))
        roots = {-j + rng.randint(-1, 1) for j in near}
        roots |= set(random_residues(rng, rng.randint(0, 2)))
        for b0 in (b_from_roots({r: 1 for r in roots}), unsplit):
            got = check_cor_jump(report, b0)
            assert got == ref_check_cor_jump(report.jumps, report.lct, b0), (report, roots)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_lemma4_matches_the_reference():
    rng = random.Random(SEED + 2)
    verdicts = set()
    for _ in range(3000):
        big = random_residues(rng, rng.randint(0, 4))
        if big and rng.random() < 0.7:
            # most small roots shift a big one, so that the check can hold
            small = [rng.choice(big) - rng.randint(0, 4) for _ in range(rng.randint(0, 4))]
            small += random_residues(rng, rng.randint(0, 1))
        else:
            small = random_residues(rng, rng.randint(0, 3))
        l_cap = rng.randint(-1, 5)
        got = check_lemma4(small, big, l_cap)
        assert got == ref_check_lemma4(small, big, l_cap), (small, big, l_cap)
        # the CLI prints l in --json, so it must be a plain int
        assert got[1] is None or type(got[1]) is int
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_lemma4_reads_fractions_of_denominator_one():
    # differences of Fractions can be integral Fractions; l is still an int
    small, big = [Fraction(-7, 3)], [Fraction(-1, 3)]
    assert check_lemma4(small, big, 5) == (True, 2)
    assert type(check_lemma4(small, big, 5)[1]) is int

"""Multiplier ideals and jumping numbers on normal-crossing chart data.

Everything here is the single-chart tier where the chart coordinates are
the ambient coordinates (identity resolution): the ideal at level alpha
is monomial and cut out coordinatewise by the strict integrability
threshold u_i > alpha * c_i - 1 for c_i = a_i - b_i > 0.  The one-sided
epsilon in the floor formula is handled symbolically through that strict
inequality; no numeric epsilon appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from .bfunction import BFunction
from .multipoly import MultiPoly
from .ncres import NCChart
from .rationals import Q, format_ratio


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generating antichain."""

    nvars: int
    generators: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_generators(nvars: int, gens: Sequence[Tuple[int, ...]]) -> "MonomialIdeal":
        kept: List[Tuple[int, ...]] = []
        for g in sorted(set(gens)):
            if len(g) != nvars:
                raise ValueError("generator length mismatch")
            if any(_dominates(g, h) for h in set(gens) - {g}):
                continue
            kept.append(g)
        return MonomialIdeal(nvars, tuple(kept))

    def contains_monomial(self, u: Tuple[int, ...]) -> bool:
        return any(_dominates(u, g) for g in self.generators)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_monomial(g) for g in other.generators)

    def is_full(self) -> bool:
        return self.generators == ((0,) * self.nvars,)


def _dominates(u: Tuple[int, ...], g: Tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(u, g))


@dataclass(frozen=True)
class JumpReport:
    jumps: Tuple[Q, ...]                 # strictly increasing, in (0, upper]
    ideals: Tuple[MonomialIdeal, ...]    # ideal at each jump (valid until the next)
    lct: Q

    def to_payload(self) -> dict:
        return {
            "jumps": [format_ratio(j) for j in self.jumps],
            "lct": format_ratio(self.lct),
            "ideals": [
                {"generators": [list(g) for g in ideal.generators]}
                for ideal in self.ideals
            ],
        }


def multiplier_ideal_nc(chart: NCChart, alpha: Q) -> MonomialIdeal:
    """Multiplier ideal at level alpha in one identity-resolution chart."""
    if any(chart.kappa):
        raise ValueError(
            f"chart {chart.label} has kappa != 0; multiplier ideals here cover "
            "only the identity resolution, where kappa = 0"
        )
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    gen = []
    for ai, bi in zip(chart.a, chart.b):
        c = ai - bi
        # the least integer u with u > alpha*c - 1
        gen.append(math.floor(alpha * c) if c > 0 else 0)
    return MonomialIdeal.from_generators(len(chart.a), [tuple(gen)])


def default_upper(chart: NCChart) -> Q:
    cpos = [ai - bi for ai, bi in zip(chart.a, chart.b) if ai > bi]
    return Q(len(chart.a) + (max(cpos) if cpos else 0))


def jumping_numbers_nc(chart: NCChart, upper: Q = None) -> JumpReport:
    """All levels in (0, upper] where the multiplier ideal strictly shrinks."""
    if upper is None:
        upper = default_upper(chart)
    if upper <= 0:
        raise ValueError("upper must be positive")
    candidates: Set[Q] = set()
    for ai, bi in zip(chart.a, chart.b):
        c = ai - bi
        if c <= 0:
            continue
        k = 1
        while Q(k, c) <= upper:
            candidates.add(Q(k, c))
            k += 1
    jumps: List[Q] = []
    ideals: List[MonomialIdeal] = []
    prev = None
    for alpha in sorted(candidates):
        here = multiplier_ideal_nc(chart, alpha)
        before = prev if prev is not None else _full_ideal(len(chart.a))
        if before.contains_ideal(here) and not here.contains_ideal(before):
            jumps.append(alpha)
            ideals.append(here)
        prev = here
    if not jumps:
        raise ValueError("no jumping numbers at or below the requested upper bound")
    return JumpReport(tuple(jumps), tuple(ideals), jumps[0])


def _full_ideal(nvars: int) -> MonomialIdeal:
    return MonomialIdeal(nvars, ((0,) * nvars,))


def is_in_multiplier_ideal(h: MultiPoly, alpha: Q, chart: NCChart) -> bool:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(h.variables) != len(chart.a):
        raise ValueError("polynomial arity does not match the chart")
    ideal = multiplier_ideal_nc(chart, alpha)
    return all(ideal.contains_monomial(e) for e in h.terms)


def check_cor_jump(report: JumpReport, b0: BFunction) -> bool:
    """Jumps sit on roots of b0 shifted by nonnegative integers, and the
    smallest jump is the negative of the largest root."""
    if b0.roots is None:
        return False  # not fully split; the comparison is undefined
    targets = set(b0.roots)
    for alpha in report.jumps:
        ok = False
        for r in targets:
            d = alpha - (-r)
            if d >= 0 and d == int(d):
                ok = True
                break
        if not ok:
            return False
    return report.lct == -max(targets)

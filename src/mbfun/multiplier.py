"""Multiplier ideals and jumping numbers on normal-crossing chart data.

Everything here is the single-chart tier where the chart coordinates are
the ambient coordinates (identity resolution): the ideal at level alpha
is the principal monomial ideal x^floor(alpha*c), cut out coordinatewise
by the strict integrability threshold u_i > alpha * c_i - 1 for
c_i = a_i - b_i > 0 (and u_i >= 0 where c_i <= 0).  The one-sided epsilon
in the floor formula is handled symbolically through that strict
inequality; no numeric epsilon appears anywhere.

So the jumps have a closed form (Howald, Trans. AMS 353, 2001;
Ein-Lazarsfeld-Smith-Varolin, Duke Math. J. 123, 2004): floor(alpha*c_i)
reaches k exactly at alpha = k/c_i, so the ideal strictly shrinks at each
k/c_i with c_i > 0 and nowhere else, and the jumping numbers up to a
bound are exactly those levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .bfunction import BFunction
from .ncres import NCChart, nonneg_integer_gap
from .rationals import Q, format_ratio


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generating antichain."""

    nvars: int
    generators: Tuple[Tuple[int, ...], ...]


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
    return MonomialIdeal(len(chart.a), (tuple(gen),))


def default_upper(chart: NCChart) -> Q:
    cpos = [ai - bi for ai, bi in zip(chart.a, chart.b) if ai > bi]
    return Q(len(chart.a) + (max(cpos) if cpos else 0))


def jumping_numbers_nc(chart: NCChart, upper: Q = None) -> JumpReport:
    """All levels in (0, upper] where the multiplier ideal strictly shrinks:
    the k/c_i <= upper with c_i = a_i - b_i > 0."""
    if upper is None:
        upper = default_upper(chart)
    if upper <= 0:
        raise ValueError("upper must be positive")
    jumps = sorted({
        Q(k, c)
        for c in (ai - bi for ai, bi in zip(chart.a, chart.b)) if c > 0
        for k in range(1, math.floor(upper * c) + 1)
    })
    if not jumps:
        raise ValueError("no jumping numbers at or below the requested upper bound")
    ideals = tuple(multiplier_ideal_nc(chart, alpha) for alpha in jumps)
    return JumpReport(tuple(jumps), ideals, jumps[0])


def check_cor_jump(report: JumpReport, b0: BFunction) -> bool:
    """Jumps sit on roots of b0 shifted by nonnegative integers, and the
    smallest jump is the negative of the largest root."""
    if b0.roots is None:
        return False  # not fully split; the comparison is undefined
    targets = set(b0.roots)
    return all(
        any(nonneg_integer_gap(alpha, -r) for r in targets) for alpha in report.jumps
    ) and report.lct == -max(targets)

"""Root combinatorics from normal-crossing chart data.

A chart records the multiplicities of F, G and the relative canonical
divisor along the coordinate hyperplanes after pulling back through a
log resolution.  From these the candidate-root set K_q, the bound set
B = K - Z_{>=0} and the monodromy eigenvalue classes are closed-form.

One shift test serves the root comparisons: r lies below q when q - r is
a nonnegative integer (`nonneg_integer_gap`).  Membership in B is that
test against some residue, and the smallest l of lemma 4 is the largest,
over the small-m roots, of the least gap up to a big-m root.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .rationals import Q


@dataclass(frozen=True)
class NCChart:
    label: str
    a: Tuple[int, ...]   # multiplicities of the numerator pullback
    b: Tuple[int, ...]   # multiplicities of the denominator pullback
    kappa: Tuple[int, ...]  # multiplicities of the relative canonical divisor

    def __post_init__(self):
        if not (len(self.a) == len(self.b) == len(self.kappa)):
            raise ValueError("chart vectors must have equal length")
        if any(v < 0 for vec in (self.a, self.b, self.kappa) for v in vec):
            raise ValueError("chart multiplicities must be nonnegative")
        if not any(self.a) and not any(self.b):
            raise ValueError("a and b must not both vanish")


def roots_nc(chart: NCChart, m: int) -> Set[Q]:
    """Candidate roots contributed by one chart at denominator order m.

    For each coordinate divisor with a_i > b_i the contribution is
    { (m b_i - kappa_i - k) / (a_i - b_i) : 1 <= k <= a_i - b_i }.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out: Set[Q] = set()
    for ai, bi, ki in zip(chart.a, chart.b, chart.kappa):
        c = ai - bi
        if c <= 0:
            continue
        for k in range(1, c + 1):
            out.add(Q(m * bi - ki - k, c))
    return out


def bound_set(charts: Sequence[NCChart], m: int) -> frozenset:
    """The finite residue set K of the bound set B = K - Z_{>=0}: the union
    of the charts' candidate roots."""
    if not charts:
        raise ValueError("at least one chart is required")
    residues: Set[Q] = set()
    for chart in charts:
        residues |= roots_nc(chart, m)
    return frozenset(residues)


def nonneg_integer_gap(q, r) -> bool:
    """True iff q - r is a nonnegative integer."""
    d = q - r
    return d >= 0 and d == int(d)


def member(residues: frozenset, r) -> bool:
    """True iff r lies in K - Z_{>=0}: some residue q has q - r a
    nonnegative integer."""
    return any(nonneg_integer_gap(q, r) for q in residues)


def eigenvalue_classes(roots: Iterable[Q]) -> Set[Q]:
    """Fractional parts in [0, 1); each class alpha stands for exp(2*pi*i*alpha)."""
    out: Set[Q] = set()
    for r in roots:
        out.add(r - math.floor(r))
    return out


def check_lemma4(
    roots_small_m: Iterable[Q],
    roots_big_m: Iterable[Q],
    l_cap: int,
) -> Tuple[bool, Optional[int]]:
    """Smallest l <= l_cap with roots(small m) ⊆ ∪_{i=0..l} (roots(big m) - i).

    That l is the largest, over the small roots r, of the least gap q - r
    to a big root q above r by a nonnegative integer (0 when there are no
    small roots).  Failure on certified inputs indicates an engine bug,
    not a math fact.
    """
    big = set(roots_big_m)
    l = 0
    for r in set(roots_small_m):
        gaps = [q - r for q in big if nonneg_integer_gap(q, r)]
        if not gaps:
            return False, None
        l = max(l, int(min(gaps)))
    return (True, l) if l <= l_cap else (False, None)


# -- chart JSON -----------------------------------------------------------


def charts_from_json(text: str) -> List[NCChart]:
    payload = json.loads(text)
    if not isinstance(payload, dict) or "charts" not in payload:
        raise ValueError('chart file must be an object with a "charts" list')
    out = []
    for entry in payload["charts"]:
        label = str(entry["label"])
        vectors = {}
        for key in ("a", "b", "kappa"):
            values = entry[key]
            # type(), not isinstance(): JSON true reads as a bool, an int subclass
            if not isinstance(values, list) or any(type(v) is not int for v in values):
                raise ValueError(f"chart {label}: {key!r} must be a JSON array of integers, "
                                 f"got {values!r}")
            vectors[key] = tuple(values)
        out.append(NCChart(label, **vectors))
    return out

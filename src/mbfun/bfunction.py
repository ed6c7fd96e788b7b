"""Candidate b-functions: monic univariate polynomials in s with their roots."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .multipoly import MultiPoly, format_coeff, rational_roots

S_VAR = "s"


@dataclass(frozen=True)
class BFunction:
    """A monic polynomial in s; roots present iff it splits over Q."""

    poly: MultiPoly
    roots: Optional[Dict[object, int]] = None

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "BFunction":
        if poly.is_zero():
            raise ValueError("b-function must be nonzero")
        poly = poly.monic()
        roots = rational_roots(poly)
        if sum(roots.values()) == poly.total_degree():
            return cls(poly, roots)
        return cls(poly, None)

    def degree(self) -> int:
        return self.poly.degree_in(S_VAR)

    def sorted_roots(self):
        if self.roots is None:
            raise ValueError("b-function does not split over Q")
        return sorted(self.roots.items())

    def __str__(self) -> str:
        if self.roots is not None:
            factors = []
            for root, mult in self.sorted_roots():
                base = S_VAR if root == 0 else f"({S_VAR} {'-' if root > 0 else '+'} {format_coeff(abs(root))})"
                factors.append(base if mult == 1 else f"{base}^{mult}")
            return "*".join(factors) if factors else "1"
        return str(self.poly)


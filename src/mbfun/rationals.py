"""Exact rational scalars.

All coefficient arithmetic in this package runs over arbitrary-precision
rationals, always stored in lowest terms with a positive denominator.  We
use gmpy2.mpq when available (noticeably faster on big Groebner runs) and
fall back to fractions.Fraction; both satisfy the same contract.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _ratio
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    _ratio = Fraction


def Q(numerator, denominator=1):
    """Build an exact rational p/q in lowest terms."""
    return _ratio(numerator, denominator)


ZERO = Q(0)
ONE = Q(1)


def format_ratio(value) -> str:
    """Serialize as "p/q" (always with explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


def parse_ratio(text: str):
    """Parse "p/q" or a plain integer string."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Q(int(num), int(den))
    return Q(int(text))

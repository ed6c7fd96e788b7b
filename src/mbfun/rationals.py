"""Exact rational scalars.

All coefficient arithmetic in this package is exact.  `Q` gives a plain
int for an integral value and a fractions.Fraction in lowest terms
otherwise.  Sums and products of ints stay ints, so polynomials with
integer coefficients never build a Fraction; arithmetic on a Fraction may
give one of denominator 1, which equals and hashes like the int.  True
division is the one operation that leaves the integers (and, on two ints,
would give a float): every quotient goes through `div`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def Q(numerator, denominator=1):
    """The exact rational p/q: an int when integral, else a Fraction."""
    if denominator == 1 and type(numerator) is int:
        return numerator
    if isinstance(numerator, float) or isinstance(denominator, float):
        raise TypeError("floats are not exact rationals")
    value = Fraction(numerator, denominator)
    return value.numerator if value.denominator == 1 else value


def div(a, b):
    """Exact quotient a / b of two rationals, an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Q(a, b)


ZERO = 0
ONE = 1


def coprime_integers(values):
    """The positive multiple of a nonzero rational vector, given as a dict
    key -> value, whose entries are coprime integers: the given dict when
    it is that already, else a new dict with the same keys in order."""
    g, l, ints = 0, 1, True
    for v in values.values():
        g = gcd(g, v.numerator)
        if type(v) is not int:
            ints = False
            d = v.denominator
            l = l * d // gcd(l, d)
    if not ints:
        return {k: v.numerator * (l // v.denominator) // g for k, v in values.items()}
    if g != 1:
        return {k: v // g for k, v in values.items()}
    return values


def format_ratio(value) -> str:
    """Serialize as "p/q" (always with explicit denominator)."""
    return f"{value.numerator}/{value.denominator}"


def parse_ratio(text: str):
    """Parse "p/q" or a plain integer string; ValueError names any other
    text, a zero q included."""
    num, slash, den = text.strip().partition("/")
    try:
        return Q(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected an integer or p/q with q != 0, got {text!r}") from None

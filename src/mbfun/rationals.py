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


def rational_content(values):
    """Positive rational c with every value/c an integer and the quotients
    coprime: the gcd of the numerators over the lcm of the denominators.
    At least one value must be nonzero."""
    g, l = 0, 1
    for c in values:
        g = gcd(g, c.numerator)
        d = c.denominator
        l = l * d // gcd(l, d)
    return Q(g, l)


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

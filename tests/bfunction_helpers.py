"""Expected b-functions built from their roots, and divisibility of one
b-function by another, for the tests that compare b-functions."""

from mbfun.bfunction import S_VAR, BFunction
from mbfun.multipoly import MultiPoly


def b_from_roots(roots):
    """The monic b-function prod (s - r)^mult over a dict root -> mult."""
    s = MultiPoly.var((S_VAR,), S_VAR)
    b = MultiPoly.const((S_VAR,), 1)
    for root, mult in roots.items():
        b = b * (s - root) ** mult
    return BFunction.from_poly(b)


def divides(a, b):
    """True iff the b-function a divides the b-function b."""
    return b.poly.divmod_single(a.poly)[1].is_zero()

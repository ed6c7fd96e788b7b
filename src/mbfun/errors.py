"""Package-wide error types: the two failures that exit 1.

Bad input is a ValueError and exits 2; these two are what is left.
"""


class CapabilityError(RuntimeError):
    """The configured bounds were not enough: the input passes the
    desk-scale size caps, a Groebner degree cap or a search bound is hit,
    or elimination finds no element the answer needs within them."""


class CertificationError(RuntimeError):
    """Engine and oracle disagree; this is a bug, never shipped output."""

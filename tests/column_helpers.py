"""Operator columns as sections, for the tests that compare them.

`sections.operator_columns` yields each column as (key, tower element,
shift), and `least_monic` takes its columns as (element, shift) pairs.
Every test that needs the section a pair stands for makes it with
`section_of`, which is elem.times(shift, ONE).

`weight_rule` and `engine_keep` are the tests the oracle and the engine
once ran on each operator shift alpha - beta to pick their columns; the
tests keep them as independent references.
"""

from operator import mul

from mbfun.oracle import weight_lattice
from mbfun.rationals import ONE
from mbfun.sections import _shift_ball, poly_weight


def section_of(elem, shift):
    """The section x^shift elem that the pair (elem, shift) stands for."""
    return elem.times(shift, ONE)


def materialized(items):
    """(key, section) for each (key, element, shift) of the builder."""
    return [(key, section_of(elem, shift)) for key, elem, shift in items]


def sections_of(pairs):
    """The sections of (element, shift) pairs."""
    return [section_of(elem, shift) for elem, shift in pairs]


def as_columns(sections):
    """Sections as least_monic columns: each its own element, unshifted."""
    return [(sec, None) for sec in sections]


def passing_shifts(base, deg, keep):
    """The entries (sum delta, delta) of the builder's shift ball that keep
    passes, in its order, as operator_columns takes them; None, every
    shift, when keep is None."""
    if keep is None:
        return None
    return [entry for entry in _shift_ball(len(base.ctx.sig.pairs), deg) if keep(entry[1])]


def weight_rule(base, rhs, lattice):
    """The test the oracle once ran on each shift delta = alpha - beta:
    has the column it builds on base the w-weight of rhs, for each w in the
    lattice?  Its weight is base's plus w.delta; a weight of None, of base
    or of rhs, prunes nothing."""
    wanted = []
    for w in lattice:
        own, weight = base.weight(w), rhs.weight(w)
        if own is not None and weight is not None:
            wanted.append((w, weight - own))
    return lambda delta: all(sum(map(mul, w, delta)) == rest for w, rest in wanted)


def engine_keep(ctx):
    """The test the engine once ran on each shift delta over (x, t) of
    sigma_m's context: delta_t >= 1 and w.delta = 0 for each w of the
    pair's lattice, t weighted w(F) - w(G)."""
    lattice = [
        w + (poly_weight(ctx.F, w) - poly_weight(ctx.G, w),) for w in weight_lattice(ctx.F, ctx.G)
    ]

    def keep(delta):
        return delta[-1] >= 1 and all(sum(map(mul, w, delta)) == 0 for w in lattice)

    return keep

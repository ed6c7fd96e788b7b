"""Operator columns as sections, for the tests that compare them.

`sections.operator_columns` yields each column as (key, tower element,
shift), and `least_monic` takes its columns as (element, shift) pairs.
Every test that needs the section a pair stands for makes it with
`section_of`, which is elem.times(shift, ONE).
"""

from mbfun.rationals import ONE


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

"""The column builder against a copy of the builder it replaced.

`legacy_operator_columns` is `sections.operator_columns` as it was before
columns came out as (tower element, shift) pairs: it enumerates every
shift with |delta|_1 <= deg on each call (`legacy_operators`), builds
derivatives in a tower of its own, and makes each column a section
through `times`.  The builder must give the same keys, in the same order,
and pairs that make equal sections, at every degree 0 .. 6, on the
battery and the engine pins, in the Laurent and the delta module, with no
rule, the oracle's weight rule and the engine's rule.  The image of a
pair over a common denominator, its element's image shifted, must equal
that of the section it makes.
"""

from functools import lru_cache
from itertools import product
from operator import add

import pytest

from mbfun.oracle import _weight_rule, weight_lattice
from mbfun.rationals import ONE
from mbfun.sections import (
    DeltaContext,
    MeroContext,
    _Images,
    base_section,
    operator_columns,
)
from column_helpers import materialized, section_of
from test_merobf import BATTERY, ENGINE_PINS, pair
from test_operator_columns import engine_rule

CASES = BATTERY + [(f, g, m) for f, g, m, _ in ENGINE_PINS]
DEGREES = range(7)


def legacy_operators(base, deg, keep):
    """(key, beta, alpha + j) in the builder's order: by beta, then
    |alpha|, alpha, j."""
    sig = base.ctx.sig
    n = len(sig.pairs)
    if keep is None:
        return unruled_operators(n, len(sig.coords) - n, deg)
    return list(_legacy_operators(n, len(sig.coords) - n, deg, keep))


@lru_cache(maxsize=None)
def unruled_operators(n, ncentral, deg):
    """Every operator, which depends only on the signature's shape."""
    return list(_legacy_operators(n, ncentral, deg, None))


def _legacy_operators(n, ncentral, deg, keep):
    central = list(product(range(deg + 1), repeat=ncentral))
    shifts = [d for d in product(range(-deg, deg + 1), repeat=n) if sum(map(abs, d)) <= deg]
    if keep is not None:
        shifts = [d for d in shifts if keep(d)]
    for beta in product(range(deg + 1), repeat=n):
        room = deg - sum(beta)
        alphas = [tuple(map(add, beta, d)) for d in shifts]
        alphas = [a for a in alphas if min(a) >= 0 and sum(a) <= room]
        for alpha in sorted(alphas, key=lambda a: (sum(a), a)):
            for j in central:
                yield alpha + j + beta, beta, alpha + j


def legacy_operator_columns(base, deg, keep):
    """(key, section) for each operator of `legacy_operators`."""
    sig = base.ctx.sig
    paired = [sig.coords[ci] for ci, _ in sig.pairs]
    tower = {(0,) * len(paired): base}

    def derivative(beta):
        if beta not in tower:
            i = next(idx for idx, e in enumerate(beta) if e)
            prev = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            tower[beta] = derivative(prev).derivative(paired[i])
        return tower[beta]

    for key, beta, exps in legacy_operators(base, deg, keep):
        yield key, derivative(beta).times(exps, ONE)


def laurent_rules(ctx, m):
    target, rhs = base_section(ctx, m, shift=1), base_section(ctx, m)
    return target, [None, _weight_rule(target, rhs, weight_lattice(ctx.F, ctx.G))]


def delta_rules(ctx):
    return ctx.generator(), [None, engine_rule(ctx)]


def rule_cases(ftext, gtext, m):
    F, G = pair(ftext, gtext)
    for base, rules in (laurent_rules(MeroContext(F, G), m), delta_rules(DeltaContext(F, G, m))):
        for keep in rules:
            yield base, keep


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_builder_matches_the_legacy_builder(ftext, gtext, m):
    # a key's section does not depend on deg, so sections are compared at
    # the largest deg, which has every key of the smaller ones
    for base, keep in rule_cases(ftext, gtext, m):
        for deg in DEGREES:
            got = [key for key, _, _ in operator_columns(base, deg, keep)]
            assert got == [key for key, _, _ in legacy_operators(base, deg, keep)], deg
        got = materialized(operator_columns(base, deg, keep))
        assert got == list(legacy_operator_columns(base, deg, keep))


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_pair_images_are_the_images_of_their_sections(ftext, gtext, m):
    for base, keep in rule_cases(ftext, gtext, m):
        got = list(operator_columns(base, 4, keep))
        if not got:
            continue
        pows = tuple(max(p) for p in zip(*(elem.pows for _, elem, _ in got)))
        images = _Images([(elem, shift) for _, elem, shift in got])
        for i, (_, elem, shift) in enumerate(got):
            assert images.image(i, pows) == section_of(elem, shift).cleared_numerator(pows)

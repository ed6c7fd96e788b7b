"""Oracle and engine columns against the shift rules that once picked them.

The oracle and the engine choose the columns x^alpha c^j d^beta they build
by the operator's shift delta = alpha - beta alone.  They once ran a test
on every shift of |delta|_1 <= deg: the oracle's weight rule
(`column_helpers.weight_rule`) and the engine's V_{-1} rule
(`column_helpers.engine_keep`).  The columns they build must be those of
the shifts these rules pass, in the builder's order, on the contexts of
the battery, the engine pins and the column cases of
test_operator_columns.  The reference keeps, of the operators that
`legacy_operators` lists from the whole (2 deg + 1)^n cube of shifts,
those whose shift the rule passes.  `_shift_ball` itself must be that
cube's filter, sorted, and a lookup in `shift_table` must give the
shifts of one weight that those rules' weight test passes, in that
order, on seeded integer lattices of every rank up to n.
"""

import random
from itertools import product
from operator import mul

import pytest

from mbfun import merobf, oracle, sections
from mbfun.errors import CapabilityError
from mbfun.multipoly import MultiPoly
from mbfun.oracle import _columns, weight_lattice
from mbfun.sections import DeltaContext, LaurentSection, MeroContext, base_section
from column_helpers import engine_keep, weight_rule
from test_column_pairs import legacy_operators
from test_merobf import BATTERY, ENGINE_PINS, pair
from test_operator_columns import CASES, ORACLE_DEG, recorder
from test_sections_oracle import shift

CONTEXTS = sorted(set(BATTERY + [(f, g, m) for f, g, m, _ in ENGINE_PINS] + CASES))


def cube_ball(n, deg):
    """(sum delta, delta) for the delta of the (2 deg + 1)^n cube with
    |delta|_1 <= deg, sorted."""
    cube = product(range(-deg, deg + 1), repeat=n)
    return tuple(sorted((sum(d), d) for d in cube if sum(map(abs, d)) <= deg))


@pytest.mark.parametrize("n", range(5))
def test_shift_ball_is_the_cube_filter(n):
    for deg in range(9):
        assert sections._shift_ball(n, deg) == cube_ball(n, deg)


@pytest.mark.parametrize("n", range(1, 5))
def test_table_lookup_is_the_weight_test_on_seeded_lattices(n):
    rng = random.Random(f"shift table {n}")
    for deg in range(9):
        ball = cube_ball(n, deg)
        for rank in range(n + 1):
            lattice = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rank))
            reach = sorted({tuple(sum(map(mul, w, d)) for w in lattice) for _, d in ball})
            # reachable weights, weights each inside its w's range but
            # maybe not reachable together, and weights past the range
            bounds = [deg * sum(map(abs, w)) for w in lattice]
            rests = rng.sample(reach, min(3, len(reach)))
            rests += [tuple(rng.randint(-b, b) for b in bounds) for _ in range(3)]
            if rank:
                rests.append(tuple(b + 1 for b in bounds))
                rests.append(tuple(rng.choice([-b - 1, rng.randint(-b, b)]) for b in bounds))
            table = sections.shift_table(n, deg, lattice)
            for rest in rests:
                want = [
                    (total, d)
                    for total, d in ball
                    if all(sum(map(mul, w, d)) == r for w, r in zip(lattice, rest))
                ]
                assert list(table.get(rest, ())) == want, (lattice, rest)
            assert sorted(e for entries in table.values() for e in entries) == list(ball)


def ruled_keys(base, deg, keep):
    """The keys of every operator of the legacy enumeration, in its order,
    whose shift keep passes."""
    return [key for key, _, _ in legacy_operators(base, deg, None) if keep(shift(key))]


@pytest.mark.parametrize("ftext, gtext, m", CONTEXTS)
def test_oracle_columns_are_those_of_the_old_weight_rule(ftext, gtext, m):
    # the right-hand sides are f^s/G^m, the prefactored witness's
    # b(s) f^s/G^(m+2), and f^s/G^m times a polynomial that some weights
    # of the lattice leave inhomogeneous; the last target is such a one
    ctx = MeroContext(*pair(ftext, gtext))
    lattice = weight_lattice(ctx.F, ctx.G)
    inhomogeneous = MultiPoly.var(ctx.ring, ctx.xvars[0]) + 1
    targets = {r: base_section(ctx, m, shift=r + 1) for r in range(3)}
    targets[3] = targets[0].scaled(inhomogeneous)
    for rhs in (
        base_section(ctx, m),
        LaurentSection(ctx, ctx.s * ctx.s + ctx.s, (0, m + 2)),
        base_section(ctx, m).scaled(inhomogeneous),
    ):
        for deg in range(ORACLE_DEG + 1):
            got = [label for label, _ in _columns(targets, deg, lattice, rhs)]
            want = [
                (r, key)
                for r, target in targets.items()
                for key in ruled_keys(target, deg, weight_rule(target, rhs, lattice))
            ]
            assert got == want, (rhs, deg)


@pytest.mark.parametrize("ftext, gtext, m", CONTEXTS)
def test_engine_columns_are_those_of_the_old_keep(ftext, gtext, m, monkeypatch):
    # with no relation ever found, the engine runs every step of its schedule
    calls = recorder(monkeypatch, merobf)
    monkeypatch.setattr(merobf, "least_monic", lambda *args: None)
    ctx = DeltaContext(*pair(ftext, gtext), m)
    with pytest.raises(CapabilityError):
        merobf.b_section_along_t(ctx, vdeg=6)
    assert [deg for _, deg, _ in calls] == [2, 4, 6]
    keep = engine_keep(ctx)
    for sigma, deg, got in calls:
        assert [key for key, _, _ in got] == ruled_keys(sigma, deg, keep)


def test_a_huge_degree_bound_builds_no_table_above_the_answer(monkeypatch):
    # x/y certifies at operator degree 2; a table at the bound 10^6 would
    # be a ball of about 10^12 shifts.  A table past 100 fails at once.
    # The oracle's tables are over the two derivations of x, y; the
    # engine's, over x, y and t, follow its own schedule up to degree 6
    built = []

    def recorded(real):
        def record(n, deg, *rest):
            assert deg <= 100, f"a table at degree {deg}"
            built.append((real.__name__, n, deg))
            return real(n, deg, *rest)

        return record

    sections.shift_table.cache_clear()
    sections._shift_ball.cache_clear()
    for module in (oracle, merobf):
        monkeypatch.setattr(module, "shift_table", recorded(sections.shift_table))
    monkeypatch.setattr(sections, "_shift_ball", recorded(sections._shift_ball))
    res = merobf.b_mero(*pair("x", "y"), 0, N=3, deg=10**6)
    assert res.status == "CERTIFIED"
    sig = res.witness[1].sig
    coords, derivs = [ci for ci, _ in sig.pairs], [di for _, di in sig.pairs]
    answered = max(
        sum(exps[i] for i in coords + derivs) for P in res.witness.values() for exps in P.terms
    )
    assert answered == 2
    oracle_tables = [(name, deg) for name, n, deg in built if n == len(sig.pairs)]
    assert {name for name, _ in oracle_tables} == {"shift_table", "_shift_ball"}
    assert max(deg for _, deg in oracle_tables) == answered

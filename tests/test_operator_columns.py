"""The operator-column builder against a generate-and-test reference.

`reference_operator_columns` walks every operator x^alpha c^j d^beta with
|alpha| + |beta| <= deg and each central exponent j <= deg, in the
builder's order (beta, then |alpha|, alpha, then j), and yields the ones
whose exponent tuple passes a rule.  `sections.operator_columns` must give
the same (key, section) list, order included, once each (element, shift)
it yields is made a section (`column_helpers.materialized`), under the
rule of each of its callers: the oracle's weight rule, which
`prefactored_witness` must apply as the G^2-scaled columns would, the
engine's rule at each step of its schedule, and no rule at all.  The
callers pick their shifts alpha - beta by looking them up in a table kept
per (number of derivations, deg, lattice), so no rule runs on a shift,
and a second pass over the battery builds no table.
"""

from collections import Counter
from itertools import product
from operator import mul

import pytest

from mbfun import linalg, merobf, oracle, sections
from mbfun.annihilator import b_classic
from mbfun.errors import CapabilityError
from mbfun.oracle import _columns, prefactored_witness, weight_lattice
from mbfun.parser import parse_poly
from mbfun.rationals import ONE, Q
from mbfun.sections import (
    DeltaContext,
    MeroContext,
    base_section,
    operator_columns,
    poly_weight,
)
from bfunction_helpers import b_from_roots
from column_helpers import materialized, section_of
from test_annihilator import CLASSIC_F
from test_merobf import BATTERY, GRADED_PINS, pair

# pairs that no weight w != 0 makes jointly quasi-homogeneous
EMPTY_LATTICE = [("x^2-y^2", "y+1"), ("x^2+x*y", "x^2+2*y^2+x")]
CASES = BATTERY + [(f, g, m) for f, g in GRADED_PINS + EMPTY_LATTICE for m in (0, 1, 2)]
ORACLE_DEG = 4


def _compositions(k, total):
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(k - 1, total - head):
            yield (head,) + rest


def reference_operator_columns(base, deg, keep=None):
    """Every operator in order, each tested by keep on its exponent tuple;
    derivatives d^beta base come from a tower as in the builder."""
    sig = base.ctx.sig
    paired = [sig.coords[ci] for ci, _ in sig.pairs]
    n = len(paired)
    central = list(product(range(deg + 1), repeat=len(sig.coords) - n))
    tower = {(0,) * n: base}

    def derivative(beta):
        if beta not in tower:
            i = next(idx for idx, e in enumerate(beta) if e)
            prev = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            tower[beta] = derivative(prev).derivative(paired[i])
        return tower[beta]

    for beta in sorted(beta for d in range(deg + 1) for beta in _compositions(n, d)):
        for da in range(deg - sum(beta) + 1):
            for alpha in _compositions(n, da):
                for j in central:
                    exps = alpha + j + beta
                    if keep is None or keep(exps):
                        yield exps, derivative(beta).times(alpha + j, ONE)


def key_weight(w, key):
    """w.alpha - w.beta of the operator with exponent tuple key."""
    n = len(w)
    return sum(map(mul, w, key[:n])) - sum(map(mul, w, key[len(key) - n:]))


def oracle_rule(base, rhs, lattice):
    """Keys of the columns on base with rhs's w-weight for each w whose
    weight base and rhs both have."""
    wanted = [
        (w, rhs.weight(w) - base.weight(w))
        for w in lattice
        if base.weight(w) is not None and rhs.weight(w) is not None
    ]
    return lambda key: all(key_weight(w, key) == rest for w, rest in wanted)


def engine_rule(ctx):
    """Keys of V_{-1} operators (t-weight <= -1) of weight 0 for each w of
    the pair's lattice, t weighted w(F) - w(G)."""
    lattice = [
        w + (poly_weight(ctx.F, w) - poly_weight(ctx.G, w),) for w in weight_lattice(ctx.F, ctx.G)
    ]
    n = len(ctx.sig.pairs)

    def keep(key):
        return key[n - 1] - key[-1] >= 1 and all(key_weight(w, key) == 0 for w in lattice)

    return keep


def recorder(monkeypatch, module):
    """Replace module.operator_columns by a wrapper recording (base, deg,
    the (key, element, shift) list) for each call."""
    calls = []
    real = module.operator_columns

    def record(base, deg, shifts=None, jdeg=None):
        out = list(real(base, deg, shifts, jdeg))
        calls.append((base, deg, out))
        return iter(out)

    monkeypatch.setattr(module, "operator_columns", record)
    return calls


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_oracle_rule_builds_the_reference_columns(ftext, gtext, m):
    ctx = MeroContext(*pair(ftext, gtext))
    lattice = weight_lattice(ctx.F, ctx.G)
    rhs = base_section(ctx, m)
    targets = {k: base_section(ctx, m, shift=k) for k in (1, 2, 3)}
    want = [
        ((k, key), sec)
        for k, target in targets.items()
        for key, sec in reference_operator_columns(
            target, ORACLE_DEG, oracle_rule(target, rhs, lattice)
        )
    ]
    got = _columns(targets, ORACLE_DEG, lattice, rhs)
    assert [(label, section_of(*column)) for label, column in got] == want


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_prefactored_rule_builds_the_reference_columns(ftext, gtext, m, monkeypatch):
    # the witness is searched for with G^-2 on the left and unscaled
    # columns; the rule must keep the shifts that the G^2-scaled columns
    # against b(s) f^s/G^m keep
    calls = recorder(monkeypatch, oracle)
    monkeypatch.setattr(oracle, "least_monic", lambda *args: None)
    F, G = pair(ftext, gtext)
    b = b_from_roots({Q(-1): 1})
    assert prefactored_witness(b, F, G, m, deg=ORACLE_DEG) is None
    [(target, deg, got)] = calls
    ctx = target.ctx
    pre = (ctx.G * ctx.G).extend_to(ctx.ring)
    lhs = base_section(ctx, m).scaled(b.poly.extend_to(ctx.ring))
    keep = oracle_rule(target.scaled(pre), lhs, weight_lattice(ctx.F, ctx.G))
    assert target == base_section(ctx, m, shift=1) and deg == ORACLE_DEG
    assert materialized(got) == list(reference_operator_columns(target, deg, keep))


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_engine_rule_builds_the_reference_columns(ftext, gtext, m, monkeypatch):
    # with no relation ever found, the engine runs every step of its schedule
    calls = recorder(monkeypatch, merobf)
    monkeypatch.setattr(merobf, "least_monic", lambda *args: None)
    ctx = DeltaContext(*pair(ftext, gtext), m)
    with pytest.raises(CapabilityError):
        merobf.b_section_along_t(ctx, vdeg=6)
    assert [deg for _, deg, _ in calls] == [2, 4, 6]
    keep = engine_rule(ctx)
    for sigma, deg, got in calls:
        assert materialized(got) == list(reference_operator_columns(sigma, deg, keep))


@pytest.mark.parametrize("ftext, gtext, m", CASES)
def test_builder_without_a_rule_builds_every_column(ftext, gtext, m):
    F, G = pair(ftext, gtext)
    laurent = base_section(MeroContext(F, G), m, shift=1)
    sigma = DeltaContext(F, G, m).generator()
    for base, deg in ((laurent, 2), (sigma, 3)):
        got = materialized(operator_columns(base, deg))
        assert got == list(reference_operator_columns(base, deg))


def counted_builder(monkeypatch, counts):
    """Make oracle and merobf build through a wrapper that counts built
    columns and poly_weight calls, and fails on a call given a rule in
    place of a list of shifts."""
    poly_weight = sections.poly_weight

    def counted_weight(*args):
        counts["poly_weight"] += 1
        return poly_weight(*args)

    def counted(base, deg, shifts=None, jdeg=None):
        assert not callable(shifts), "a shift rule was passed"
        for item in sections.operator_columns(base, deg, shifts, jdeg):
            counts["columns"] += 1
            yield item

    for module in (oracle, merobf):
        monkeypatch.setattr(module, "operator_columns", counted)
    for module in (sections, merobf):
        monkeypatch.setattr(module, "poly_weight", counted_weight)


def test_battery_runs_no_shift_rule(monkeypatch):
    # when the callers passed a test that ran on each shift of every call,
    # a pass made 13,809 such tests (95,973 when it ran on each operator's
    # exponent tuple) and 3,222 poly_weight calls for 555 columns.  When
    # minimization was one joint search in (x, s) per lower b-degree, with
    # s^j up to the operator degree, a pass built 555 columns; the root
    # tests at nu = 0 build the s^0 ones once per minimization.  When
    # verify_functional_equation and minimize_by_oracle each computed the
    # rest weights of their targets, a pass made 480 poly_weight calls
    counts = Counter()
    counted_builder(monkeypatch, counts)
    sections.shift_table.cache_clear()
    built = []
    for _ in range(2):
        counts.clear()
        for ftext, gtext, m in BATTERY:
            merobf.b_mero(*pair(ftext, gtext), m)
        built.append(sections.shift_table.cache_info().misses)
        assert counts["poly_weight"] == 360
        assert counts["columns"] == 195
    # a cold pass builds 30 tables, and the second finds them all
    assert built[0] <= 30 and built[1] == built[0]


def counter(monkeypatch, counts):
    """count(owner, attr, label): make owner.attr count its calls under
    label; the sections' derivatives, times calls and Laurent clearings,
    and linalg's solves, are counted at once."""

    def count(owner, attr, label):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(sections._Section, "derivative", "derivative")
    count(sections._Section, "times", "times")
    count(sections.DeltaSection, "times", "times")
    count(sections.LaurentSection, "cleared_numerator", "cleared")
    count(linalg, "solve", "solve")
    return count


def test_battery_builds_each_derivative_image_and_lattice_once(monkeypatch):
    # one b_mero pass over the battery.  When each search built its own
    # towers and lattice and every column was a section imaged on its own,
    # it made 126 weight_lattice calls, 624 derivatives, 1,353 times calls
    # (DeltaSection's inner _Section.times included), 2,469 clearings and
    # 60 engine least_monic calls, 33 of them on no column.  When the
    # engine built theta^d sigma_m for every d <= 8 up front and ran
    # least_monic on steps with no column, it made 579 derivatives, 825
    # times calls, 1,623 clearings, 288 apply_delta_operator calls, 405
    # solves and 51 engine least_monic calls, 24 of them on no column.
    # When build_sigma applied the seed operators to sigma_m, it made 417
    # derivatives, 501 times calls, 543 clearings and 126
    # apply_delta_operator calls.  When the oracle's ladder started at
    # degree 1, with no column below its first, and operators were applied
    # one term at a time, it made 189 times calls, 375 clearings and 189
    # solves.  When minimization was one joint search per lower b-degree
    # and the engine took theta^(d+1) sigma_m through apply_delta_operator,
    # it made 321 clearings, 135 solves and 54 apply_delta_operator calls;
    # a root test per root of engine_b clears its tower elements once more
    counts = Counter()
    count = counter(monkeypatch, counts)
    count(oracle, "weight_lattice", "lattice")
    count(sections.DeltaSection, "cleared_numerator", "cleared")
    count(merobf, "apply_delta_operator", "apply_delta_operator")
    least_monic = merobf.least_monic

    def engine_least_monic(powers, columns, *rest):
        counts["engine least_monic"] += 1
        counts["on no column"] += not columns
        return least_monic(powers, columns, *rest)

    monkeypatch.setattr(merobf, "least_monic", engine_least_monic)
    for ftext, gtext, m in BATTERY:
        merobf.b_mero(*pair(ftext, gtext), m)
    assert counts["lattice"] == len(BATTERY)
    assert counts["derivative"] == 327
    assert counts["times"] == 162
    assert counts["cleared"] == 402
    assert counts["apply_delta_operator"] == 0
    assert counts["solve"] == 153
    # a step with no column, or with the columns of the failed step before
    # it, is skipped, and theta^d sigma_m is built only when degree d is
    # tried
    assert counts["engine least_monic"] == 27
    assert counts["on no column"] == 0


def test_classical_certification_counts(monkeypatch):
    # one b_classic pass over the F of the cli-classic benchmark: the
    # elimination and the N = 1 certification, x^3+y^4 run to its bound.
    # When the ladder started at degree 1 and operators were applied one
    # term at a time, it made 38 solves, 190 derivatives and 35 times calls
    counts = Counter()
    counter(monkeypatch, counts)
    statuses = [b_classic(parse_poly(text)).status for text in CLASSIC_F]
    assert statuses.count("CERTIFIED") == 8
    assert counts["solve"] == 22
    assert counts["derivative"] == 140
    assert counts["times"] == 0

"""Acceptance gate: one test per criterion, each printing a pass/fail line,
and the paper's monodromy statement checked on the criteria's battery.

Run with -v (and -s to see the summary lines) to get exactly one verdict
line per criterion.  Timing limits are part of the criteria and asserted.
"""

import json
import time

import pytest

from mbfun.annihilator import bernstein_sato
from mbfun.cli import main as cli_main
from mbfun.errors import CapabilityError
from mbfun.merobf import b_mero, b_simple, reduced_b
from mbfun.multiplier import check_cor_jump, jumping_numbers_nc
from mbfun.ncres import NCChart, bound_set, check_lemma4, eigenvalue_classes, member
from mbfun.oracle import minimize_by_oracle, verify_functional_equation
from mbfun.parser import parse_poly
from mbfun.rationals import Q
from mbfun.sections import MeroContext, apply_operator, base_section
from mbfun.weyl import WeylElement
from bfunction_helpers import b_from_roots, divides

BATTERY_AS = (1, 2, 3)
BATTERY_BS = (0, 1, 2)
BATTERY_MS = (0, 1, 2)


def monomial_pair(a, b):
    if b == 0:
        return parse_poly(f"x^{a}", ("x",)), parse_poly("1", ("x",))
    return parse_poly(f"x^{a}", ("x", "y")), parse_poly(f"y^{b}", ("x", "y"))


def verdict(n, ok, detail):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def battery():
    start = time.monotonic()
    results = {}
    for a in BATTERY_AS:
        for b in BATTERY_BS:
            for m in BATTERY_MS:
                F, G = monomial_pair(a, b)
                results[(a, b, m)] = b_mero(F, G, m)
    return results, time.monotonic() - start


def test_criterion_1_classical_battery():
    worst = 0.0
    for a in range(1, 5):
        F = parse_poly(f"x^{a}", ("x",))
        one = parse_poly("1", ("x",))
        t0 = time.monotonic()
        b = bernstein_sato(F)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        expected = b_from_roots({Q(-k, a): 1 for k in range(1, a + 1)})
        assert b.poly == expected.poly, f"x^{a}"
        assert elapsed < 1.0, f"x^{a} took {elapsed:.2f}s"
        # frozen independent witness: (1/a^a) dx^a realizes b(s) f^s = P f^{s+1}
        ctx = MeroContext(F, one)
        P = Q(1, a**a) * WeylElement.gen(ctx.sig, "dx", a)
        lhs = base_section(ctx, 0).scaled(b.poly.extend_to(ctx.ring))
        rhs = apply_operator(P, base_section(ctx, 0, shift=1))
        assert lhs.section_eq(rhs), f"explicit witness fails for x^{a}"
        assert minimize_by_oracle(b, F, one, 0, N=1, deg=a).poly == b.poly
    verdict(1, True, f"b(x^a) = prod(s + k/a) for a=1..4, worst {worst:.2f}s")


def test_criterion_2_quadric():
    F = parse_poly("x^2 + y^2 + z^2")
    one = parse_poly("1", F.variables)
    t0 = time.monotonic()
    b = bernstein_sato(F)
    elapsed = time.monotonic() - t0
    expected = b_from_roots({Q(-1): 1, Q(-3, 2): 1})
    assert b.poly == expected.poly
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    assert verify_functional_equation(b, F, one, 0, N=1, deg=2) is not None
    assert minimize_by_oracle(b, F, one, 0, N=1, deg=4).poly == b.poly
    verdict(2, True, f"b(x^2+y^2+z^2) = (s+1)(s+3/2) in {elapsed:.2f}s, minimal at deg 4")


def test_criterion_3_separated_variables():
    worst = 0.0
    for m in (0, 1, 2):
        F, G = monomial_pair(1, 1)
        t0 = time.monotonic()
        res = b_mero(F, G, m)
        worst = max(worst, time.monotonic() - t0)
        assert str(res.b) == "(s + 1)" and res.status == "CERTIFIED", f"m={m}"
    F, G = monomial_pair(3, 2)
    t0 = time.monotonic()
    res = b_mero(F, G, 0)
    worst = max(worst, time.monotonic() - t0)
    assert res.b.roots == {Q(-1): 1, Q(-2, 3): 1, Q(-1, 3): 1}
    assert res.status == "CERTIFIED"
    assert worst < 120.0
    verdict(3, True, f"x/y all m and x^3/y^2, worst case {worst:.2f}s")


def test_criterion_4_trivial_denominator_reduction():
    for text in ("x", "x^2", "x^2 + y^2"):
        F = parse_poly(text)
        classical = bernstein_sato(F)
        one = parse_poly("1", F.variables)
        for m in (0, 3):
            res = b_mero(F, one, m)
            assert res.b.poly == classical.poly, f"{text}, m={m}"
            assert res.status == "CERTIFIED"
    verdict(4, True, "b_mero(F, 1, m) = classical b for x, x^2, x^2+y^2 at m in {0,3}")


def test_criterion_5_bound_set_containment(battery):
    results, elapsed = battery
    checked = 0
    for (a, b, m), res in results.items():
        assert res.status == "CERTIFIED", f"battery item ({a},{b},{m}) uncertified"
        nvars = 1 if b == 0 else 2
        chart = NCChart("q", (a, 0)[:nvars], (0, b)[:nvars], (0, 0)[:nvars])
        B = bound_set([chart], m)
        for root, _ in res.b.sorted_roots():
            assert member(B, root), f"root {root} escapes bound at ({a},{b},{m})"
            if m == 0:
                assert root < 0
            checked += 1
    assert elapsed < 300.0, f"battery took {elapsed:.1f}s"
    verdict(5, True, f"{checked} roots inside the bound sets, battery {elapsed:.1f}s")


def test_criterion_6_root_shift_inclusion(battery):
    results, _ = battery
    pairs = 0
    for a in BATTERY_AS:
        for b in BATTERY_BS:
            for m_small in BATTERY_MS:
                for m_big in BATTERY_MS:
                    if m_small > m_big:
                        continue
                    roots_small = [r for r, _ in results[(a, b, m_small)].b.sorted_roots()]
                    roots_big = [r for r, _ in results[(a, b, m_big)].b.sorted_roots()]
                    ok, l = check_lemma4(roots_small, roots_big, 5)
                    assert ok and l <= 5, f"({a},{b}) m'={m_small} m={m_big}"
                    pairs += 1
    verdict(6, True, f"root-shift inclusion with l <= 5 on {pairs} battery pairs")


def test_criterion_7_reduced_divisibility(battery):
    results, _ = battery
    F, G = parse_poly("x^2 + y^2"), parse_poly("x", ("x", "y"))
    fast = reduced_b(F, G, (1, 1), 2, 1)
    assert str(fast.b) == "(s + 1)"
    assert any("trivial" in note for note in fast.notes)
    computed = 0
    for a in BATTERY_AS:
        for b in BATTERY_BS:
            if a == b:
                continue  # quasi-homogeneous degrees must differ
            Fm, Gm = monomial_pair(a, b)
            weights = (1,) * len(Fm.variables)
            try:
                red = reduced_b(Fm, Gm, weights, a, b)
            except CapabilityError:
                continue
            for m in BATTERY_MS:
                assert divides(red.b, results[(a, b, m)].b), f"({a},{b},{m})"
            computed += 1
    verdict(7, True, f"fast path s+1 and reduced | mero on {computed} battery pairs")


def test_monodromy_eigenvalues_agree(battery):
    # The paper: several b-functions of f = F/G have roots that give the same
    # Milnor-monodromy eigenvalues exp(2 pi i alpha).  On x^a/y^b, b_mero at
    # every m, b_simple and the normal-crossing chart give one class set.
    results, _ = battery
    for a in BATTERY_AS:
        for b in BATTERY_BS:
            F, G = monomial_pair(a, b)
            nvars = len(F.variables)
            chart = NCChart("q", (a, 0)[:nvars], (0, b)[:nvars], (0, 0)[:nvars])
            classes = eigenvalue_classes(b_simple(F, G, 0).b.roots)
            for m in BATTERY_MS:
                assert eigenvalue_classes(results[(a, b, m)].b.roots) == classes, (a, b, m)
                assert eigenvalue_classes(bound_set([chart], m)) == classes, (a, b, m)


@pytest.mark.parametrize(
    "pair, classes",
    [(("x^2 + y^3", "x"), {0, Q(1, 3), Q(2, 3)}), (("x*y", "x + y"), {0})],
    ids=["(x^2+y^3)/x", "xy/(x+y)"],
)
def test_monodromy_eigenvalues_agree_on_non_monomial_pairs(pair, classes):
    # the same statement off the monomial battery: b_mero at every m and
    # b_simple give one class set
    F, G = (parse_poly(text, ("x", "y")) for text in pair)
    assert eigenvalue_classes(b_simple(F, G, 0).b.roots) == classes
    for m in BATTERY_MS:
        assert eigenvalue_classes(b_mero(F, G, m).b.roots) == classes, m


def test_criterion_8_jumping_numbers():
    b1 = b_mero(*monomial_pair(2, 0), 0).b
    b2 = b_mero(*monomial_pair(3, 2), 0).b
    t0 = time.monotonic()
    rep1 = jumping_numbers_nc(NCChart("q", (2,), (0,), (0,)), Q(1))
    assert list(rep1.jumps) == [Q(1, 2), Q(1)]
    rep2 = jumping_numbers_nc(NCChart("q", (3, 0), (0, 2), (0, 0)), Q(1))
    assert list(rep2.jumps) == [Q(1, 3), Q(2, 3), Q(1)]
    assert check_cor_jump(rep1, b1)
    assert check_cor_jump(rep2, b2)
    assert rep1.lct == -max(b1.roots)
    assert rep2.lct == -max(b2.roots)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"jump computation took {elapsed:.2f}s"
    verdict(8, True, f"jump sets and lct match roots of b at m=0 in {elapsed:.3f}s")


def test_criterion_9_oracle_soundness(rng):
    certified = 0
    for _ in range(20):
        a = rng.randint(1, 3)
        b = rng.randint(0, 2)
        m = rng.randint(0, 2)
        F, G = monomial_pair(a, b)
        res = b_mero(F, G, m)
        assert res.status == "CERTIFIED", f"({a},{b},{m})"
        assert verify_functional_equation(res.b, F, G, m, N=3, deg=6) is not None
        assert minimize_by_oracle(res.b, F, G, m, N=3, deg=6).poly == res.b.poly, f"({a},{b},{m})"
        certified += 1
    verdict(9, True, f"{certified}/20 randomized pairs certified and strictly minimal")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    charts = tmp_path / "charts.json"
    charts.write_text('{"charts":[{"label":"q","a":[3,0],"b":[0,2],"kappa":[0,0]}]}')
    commands = [
        ["bf", "classic", "x^2", "--json"],
        ["bf", "mero", "x", "y", "--m", "1", "--json"],
        ["bf", "simple", "x", "y", "--json"],
        ["nc", "bound", "--charts", str(charts), "--m", "0", "--json"],
        ["nc", "eigen", "--charts", str(charts), "--m", "2", "--json"],
        ["jump", "nc", "--charts", str(charts), "--upper", "1", "--json"],
        ["check", "corjump", "x^3", "y^2", "--upper", "1", "--json"],
    ]
    transcripts = []
    for _ in range(2):
        chunks = []
        for argv in commands:
            assert cli_main(argv) == 0
            chunks.append(capsys.readouterr().out)
            json.loads(chunks[-1])  # every report is valid JSON
        transcripts.append("".join(chunks))
    assert transcripts[0] == transcripts[1], "reports differ between runs"
    verdict(10, True, f"{len(commands)} JSON reports byte-identical across two runs")

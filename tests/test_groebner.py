"""Left Groebner bases and elimination."""

import heapq
import math
import random
from fractions import Fraction

import pytest

from mbfun.cli import main
from mbfun import groebner
from mbfun.errors import CapabilityError
from mbfun.groebner import (
    LeftIdeal,
    buchberger,
    eliminate,
    max_degree_cap,
    normal_form,
)
from mbfun.multipoly import MultiPoly
from mbfun.rationals import Q, div
from mbfun.weyl import AlgebraSignature, MonomialOrder, WeylElement

SIG = AlgebraSignature.make(pairs=[("x", "dx")], central=["s"])


def gen(name, sig=SIG):
    return WeylElement.gen(sig, name)


def test_membership_in_principal_ideal():
    ideal = LeftIdeal(SIG, [gen("dx")])
    assert ideal.contains(gen("dx") * gen("dx"))
    assert ideal.contains(gen("x") * gen("dx"))
    assert not ideal.contains(gen("x"))


def test_spair_completion_is_needed():
    # 1 = dx*x - x*dx lies in <dx, x> but under neither leading monomial;
    # only the completed basis exposes it.
    ideal = LeftIdeal(SIG, [gen("dx"), gen("x")])
    assert ideal.contains(WeylElement.const(SIG, 1))


def test_eliminate_euler_relation():
    # (x dx - s) x^s = 0 and multiplication by x give, after eliminating
    # the (x, dx) pair, exactly the relation s + 1 (because dx x = x dx + 1
    # pushes the ideal one step: (s+1) = dx * x - x * dx acting in the
    # quotient).  The intersection with Q[s] is generated by s + 1.
    ideal = LeftIdeal(SIG, [gen("x") * gen("dx") - gen("s"), gen("x")])
    sub = eliminate(ideal, ["x", "dx"])
    polys = sorted(str(g) for g in sub.generators)
    assert polys == ["s + 1"]


def test_eliminate_requires_matched_pairs():
    ideal = LeftIdeal(SIG, [gen("x")])
    with pytest.raises(ValueError):
        eliminate(ideal, ["x"])


SHIFT_SIG = AlgebraSignature.make(pairs=[("x", "dx")], shift_pairs=[("s", "dt")])


def test_product_criterion_is_off_across_a_shift_pair():
    # exponent order: x, s, dx, dt; dt s = s dt - dt, so s and dt do not commute
    s, dt, x, dx = (0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)
    assert not groebner._product_criterion_safe(SHIFT_SIG, s, dt)
    assert not groebner._product_criterion_safe(SHIFT_SIG, dt, s)
    assert not groebner._product_criterion_safe(SHIFT_SIG, x, dx)
    assert groebner._product_criterion_safe(SHIFT_SIG, x, dt)
    assert groebner._product_criterion_safe(SHIFT_SIG, s, dx)


def test_eliminating_dt_leaves_s_central():
    # Ann(x^s) from <s + x dt, dx + dt>: eliminating dt gives x dx - s
    x, s, dx, dt = (gen(n, SHIFT_SIG) for n in ("x", "s", "dx", "dt"))
    sub = eliminate(LeftIdeal(SHIFT_SIG, [s + x * dt, dx + dt]), ["dt"])
    assert (sub.sig.coords, sub.sig.derivs, sub.sig.pairs, sub.sig.shift_pairs) == (
        ("x", "s"), ("dx",), ((0, 2),), ()
    )
    assert [str(g) for g in sub.generators] == ["x*dx - s"]


def test_eliminate_refuses_to_keep_a_shift_pair():
    # every caller drops d_t, so a drop set without it, with or without
    # its s, is refused
    x, s, dx, dt = (gen(n, SHIFT_SIG) for n in ("x", "s", "dx", "dt"))
    for drop in (["x", "dx"], ["s"], []):
        with pytest.raises(ValueError, match="d_t of every shift pair"):
            eliminate(LeftIdeal(SHIFT_SIG, [x * dx - s, x * dt * s]), drop)


def test_normal_form_idempotent():
    order = MonomialOrder.degrevlex()
    basis = LeftIdeal(SIG, [gen("x") * gen("dx") - gen("s")]).groebner(order)
    elem = gen("x") * gen("x") * gen("dx") * gen("dx")
    r = normal_form(elem, basis, order)
    assert normal_form(r, basis, order) == r


def test_negative_weight_is_refused():
    # under the V-filtration weight a monomial has infinitely many below
    # it, and a reduction need not end; theta_reduce saturates instead
    sig = AlgebraSignature.make(pairs=[("t", "dt")])
    order = MonomialOrder.weight(sig, {"t": -1, "dt": 1})
    t, dt = WeylElement.gen(sig, "t"), WeylElement.gen(sig, "dt")
    with pytest.raises(ValueError, match="nonnegative weights"):
        buchberger(sig, [t * dt + 2, t * t], order)
    with pytest.raises(ValueError, match="nonnegative weights"):
        LeftIdeal(sig, [t * dt + 2, t * t]).groebner(order)


def test_no_element_is_dropped_as_reducer_or_pair_partner():
    # Under the elimination order of the b-function, an element whose
    # leading monomial a later one divides often has the lower-degree tail.
    # Reducing only against the other elements, and pairing new elements
    # only with them, took this run past the default degree cap 24.
    from mbfun.annihilator import bernstein_sato
    from mbfun.parser import parse_poly

    assert str(bernstein_sato(parse_poly("x^4+y^6"))) == (
        "(s + 19/12)*(s + 17/12)*(s + 4/3)*(s + 5/4)*(s + 7/6)*(s + 13/12)*(s + 1)^2"
        "*(s + 11/12)*(s + 5/6)*(s + 3/4)*(s + 2/3)*(s + 7/12)*(s + 5/12)"
    )


@pytest.mark.parametrize("a, b", [(4, 7), (5, 6)])
def test_brieskorn_pham_past_the_old_limits_answer(a, b, capsys):
    # Taking pairs by lcm degree, `bf classic x^5+y^6` passed the default
    # degree cap 24; x^4+y^7 ran for minutes listing the roots of its b by
    # trial division.  Both answer now, with b = (s + 1) times the
    # s + i/a + j/b for 0 < i < a, 0 < j < b, the b of a Brieskorn-Pham
    # polynomial with coprime exponents.
    import json

    assert main(["bf", "classic", f"x^{a}+y^{b}", "--json"]) == 0
    roots = json.loads(capsys.readouterr().out)["result"]["roots"]
    want = {Fraction(-1): 1}
    want.update({-Fraction(i, a) - Fraction(j, b): 1 for i in range(1, a) for j in range(1, b)})
    assert {Fraction(r): m for r, m in roots} == want


def test_brieskorn_pham_x5_y7_exceeds_the_degree_cap(capsys):
    assert main(["bf", "classic", "x^5+y^7"]) == 1
    assert "MBFUN_MAX_DEGREE" in capsys.readouterr().err


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("MBFUN_MAX_DEGREE", "7")
    assert max_degree_cap() == 7
    monkeypatch.delenv("MBFUN_MAX_DEGREE")
    assert max_degree_cap() == 24


def test_degree_cap_raises_capability_error(monkeypatch):
    monkeypatch.setenv("MBFUN_MAX_DEGREE", "2")
    from mbfun.annihilator import bernstein_sato
    from mbfun.parser import parse_poly

    with pytest.raises(CapabilityError):
        bernstein_sato(parse_poly("x^2"))


# -- differential tests of the completion loop -------------------------------
#
# Two references.  The first is the plain Buchberger loop `buchberger` ran
# before the Gebauer-Moeller update: the pending pairs are a set, each step
# takes the `min` of (lcm degree, order key of the lcm, i, j) over all of
# them, skips a pair by the product criterion or by a scan of the basis for
# the chain criterion, and reduces against every element.  A reduced basis
# is unique, so `buchberger` must return the same reduced basis list.
#
# The second is the textbook loop with the Gebauer-Moeller update, written
# as the UPDATE procedure of Becker and Weispfenning (Groebner Bases, 1993):
# a set of pending pairs, every leading monomial recomputed where it is
# read, and the sugar strategy of Giovini, Mora, Niesi, Robbiano and
# Traverso ("One sugar cube, please", ISSAC 1991): each step takes the
# `min` of (sugar, lcm degree, order key of the lcm, i, j), an input's
# sugar is its degree, and a reduced S-polynomial's is its pair's as the
# plain reduction loop raises it.  `buchberger` must return the same basis
# list, and reduce the same S-polynomials in the same order: only the
# second check sees the selection order and the pair update themselves.


def _lm(elem, order):
    return max(elem.terms, key=order.key)


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _s_pair(f, g, order):
    lf, lg = _lm(f, order), _lm(g, order)
    lcm = _lcm(lf, lg)
    uf = tuple(a - b for a, b in zip(lcm, lf))
    ug = tuple(a - b for a, b in zip(lcm, lg))
    return (
        WeylElement(f.sig, {uf: div(1, f.terms[lf])}) * f
        - WeylElement(g.sig, {ug: div(1, g.terms[lg])}) * g
    )


def _product_criterion(sig, a, b):
    if any(min(x, y) for x, y in zip(a, b)):
        return False
    return not any((a[d] and b[c]) or (b[d] and a[c]) for c, d in sig.pairs)


def _reference_core(sig, basis, order, cap):
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    done = set()
    while pairs:
        def pair_key(p):
            lcm = _lcm(_lm(basis[p[0]], order), _lm(basis[p[1]], order))
            return (sum(lcm),) + tuple(order.key(lcm)) + p

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        done.add((i, j))
        li, lj = _lm(basis[i], order), _lm(basis[j], order)
        if _product_criterion(sig, li, lj):
            continue
        lcm = _lcm(li, lj)
        if any(
            k not in (i, j)
            and _divides(_lm(basis[k], order), lcm)
            and (max(i, k), min(i, k)) in done
            and (max(j, k), min(j, k)) in done
            for k in range(len(basis))
        ):
            continue
        h = groebner.normal_form(_s_pair(basis[i], basis[j], order), basis, order, cap)
        if h.is_zero():
            continue
        if h.total_degree() > cap:
            raise CapabilityError("basis element exceeds degree cap")
        basis.append(h.content_primitive())
        pairs.update((len(basis) - 1, k) for k in range(len(basis) - 1))
    return basis


def _int_s_pair(f, g, order):
    lf, lg = _lm(f, order), _lm(g, order)
    lcm = _lcm(lf, lg)
    uf = tuple(a - b for a, b in zip(lcm, lf))
    ug = tuple(a - b for a, b in zip(lcm, lg))
    gamma = math.gcd(f.terms[lf], g.terms[lg])
    return (
        WeylElement(f.sig, {uf: g.terms[lg] // gamma}) * f
        - WeylElement(g.sig, {ug: f.terms[lf] // gamma}) * g
    )


def _gm_update(sig, basis, order, pairs, new):
    """UPDATE(G, B, h) for h = basis[new] and G = basis[:new]: the pending
    pairs after h enters.  Of new pairs with equal lcm, UPDATE keeps the
    last it takes from C; C is taken in falling index order, so that is
    the pair with the oldest element.  G keeps an element whose leading
    monomial lm(h) divides, so UPDATE's last step, which drops it, is left
    out."""
    def lm(k):
        return _lm(basis[k], order)

    def pair_lcm(p):
        return _lcm(lm(p[0]), lm(p[1]))

    h = lm(new)
    C = [(new, k) for k in reversed(range(new))]
    D = []
    while C:
        p = C.pop(0)
        if _product_criterion(sig, h, lm(p[1])) or not any(
            _divides(pair_lcm(q), pair_lcm(p)) for q in C + D
        ):
            D.append(p)
    E = {p for p in D if not _product_criterion(sig, h, lm(p[1]))}
    B = {
        (i, j)
        for i, j in pairs
        if not _divides(h, pair_lcm((i, j)))
        or _lcm(lm(i), h) == pair_lcm((i, j))
        or _lcm(h, lm(j)) == pair_lcm((i, j))
    }
    return B | E


def _gm_core(sig, basis, order, cap):
    sugars = [g.total_degree() for g in basis]
    pairs = set()
    for new in range(len(basis)):
        pairs = _gm_update(sig, basis, order, pairs, new)
    while pairs:
        def pair_key(p):
            lcm = _lcm(_lm(basis[p[0]], order), _lm(basis[p[1]], order))
            sugar = max(sugars[k] + sum(lcm) - sum(_lm(basis[k], order)) for k in p)
            return (sugar, sum(lcm)) + tuple(order.key(lcm)) + p

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        s_pair = _int_s_pair(basis[i], basis[j], order)
        h = groebner.normal_form(s_pair, basis, order, cap)
        if h.is_zero():
            continue
        if h.total_degree() > cap:
            raise CapabilityError("basis element exceeds degree cap")
        _, sugar = reference_reduction(s_pair, basis, order, cap, sugars, pair_key((i, j))[0])
        basis.append(h.content_primitive())
        sugars.append(sugar)
        pairs = _gm_update(sig, basis, order, pairs, len(basis) - 1)
    return basis


def _reference_interreduce(basis, order, cap, rising=False):
    """Drop elements whose lm another divides, then reduce each against the
    others; or, when rising, against the reduced elements ranked before it,
    which hold every leading monomial below its own."""
    basis = sorted(basis, key=lambda g: order.key(_lm(g, order)))
    kept = []
    for idx, g in enumerate(basis):
        lm = _lm(g, order)
        others = basis[:idx] + basis[idx + 1 :]
        if any(_divides(_lm(o, order), lm) and _lm(o, order) != lm for o in others):
            continue
        if any(_lm(o, order) == lm for o in basis[:idx]):
            continue
        kept.append(g)
    final = []
    for idx, g in enumerate(kept):
        others = list(final) if rising else kept[:idx] + kept[idx + 1 :]
        if others:
            g = groebner.normal_form(g, others, order, cap)
            if g.is_zero():
                continue
        final.append(g.content_primitive())
    return sorted(final, key=lambda g: order.key(_lm(g, order)))


def reference_buchberger(sig, gens, order, cap, core=_reference_core, rising=False):
    basis = [g.content_primitive() for g in gens if not g.is_zero()]
    return _reference_interreduce(core(sig, basis, order, cap), order, cap, rising)


def gm_buchberger(sig, gens, order, cap):
    return reference_buchberger(sig, gens, order, cap, core=_gm_core, rising=True)


def _annihilator_like(rng, sig, names):
    """A random subset of {f d_v - s f_v} ∪ {f} (and f_y d_x - f_x d_y in
    two variables) for a random f of degree <= 2 with three terms: the
    shape of the ideals that classical b-functions eliminate from."""
    terms = {}
    for _ in range(3):
        e = [0] * len(names)
        for _ in range(rng.randint(1, 2)):
            e[rng.randrange(len(names))] += 1
        terms[tuple(e)] = rng.choice([-2, -1, 1, 2, 3])
    f = MultiPoly(tuple(names), terms)
    F = WeylElement.from_poly(sig, f)
    s = WeylElement.gen(sig, "s")
    df = {v: WeylElement.from_poly(sig, f.derivative(v)) for v in names}
    gens = [F * WeylElement.gen(sig, "d" + v) - s * df[v] for v in names] + [F]
    if len(names) == 2:
        gens.append(df["y"] * WeylElement.gen(sig, "dx") - df["x"] * WeylElement.gen(sig, "dy"))
    rng.shuffle(gens)
    return gens[: rng.randint(2, len(gens))]


def _run_recorded(fn, sig, gens, order, cap, monkeypatch):
    """(basis or "cap", every element groebner.normal_form reduced)."""
    reduced = []

    def recording(elem, basis, *args, **kwargs):
        reduced.append(elem)
        return normal_form(elem, basis, *args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", recording)
    try:
        return fn(sig, gens, order, cap), reduced
    except CapabilityError:
        return "cap", reduced


D1 = AlgebraSignature.make(pairs=[("x", "dx")], central=["s"])
D2 = AlgebraSignature.make(pairs=[("x", "dx"), ("y", "dy")], central=["s"])
ORDERS = {
    "degrevlex": lambda sig: MonomialOrder.degrevlex(),
    "positive-weight": lambda sig: MonomialOrder.weight(sig, {"x": 1, "dx": 1}),
}
# normal_form also runs under the V-filtration weight, which buchberger refuses
NF_ORDERS = {
    **ORDERS,
    "negative-weight": lambda sig: MonomialOrder.weight(sig, {"x": -1, "dx": 1}),
}


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("alg", ["D1", "D2"])
def test_selection_matches_reference_loop(alg, order_name, monkeypatch):
    sig, names = {"D1": (D1, ["x"]), "D2": (D2, ["x", "y"])}[alg]
    order = ORDERS[order_name](sig)
    compared = 0
    for trial in range(12):
        gens = _annihilator_like(random.Random(f"{alg}-{trial}"), sig, names)
        got, got_reduced = _run_recorded(buchberger, sig, gens, order, 6, monkeypatch)
        want, want_reduced = _run_recorded(
            gm_buchberger, sig, gens, order, 6, monkeypatch
        )
        assert got == want, (alg, order_name, trial)
        assert got_reduced == want_reduced, (alg, order_name, trial)
        compared += got != "cap"
    assert compared >= 5


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("alg", ["D1", "D2"])
def test_reduced_basis_matches_plain_loop(alg, order_name):
    sig, names = {"D1": (D1, ["x"]), "D2": (D2, ["x", "y"])}[alg]
    order = ORDERS[order_name](sig)
    compared = 0
    for trial in range(12):
        gens = _annihilator_like(random.Random(f"{alg}-{trial}"), sig, names)
        outcomes = []
        for fn in (buchberger, reference_buchberger):
            try:
                outcomes.append(fn(sig, gens, order, 6))
            except CapabilityError:
                outcomes.append("cap")
        got, want = outcomes
        assert got == want, (alg, order_name, trial)
        compared += got != "cap"
    assert compared >= 5


def test_leading_monomials_are_not_recomputed(monkeypatch, capsys):
    # A deterministic guard in place of a timing test: with each leading
    # monomial and each pair key computed once, `bf classic x*y*(x+y)`
    # makes about 7,000 order-key calls; recomputing them at every pair
    # selection made 589,638.
    calls = [0]
    key = MonomialOrder.key

    def counted(self, exps):
        calls[0] += 1
        return key(self, exps)

    monkeypatch.setattr(MonomialOrder, "key", counted)
    assert main(["bf", "classic", "x*y*(x+y)", "--json"]) == 0
    assert calls[0] < 50_000


def test_pair_update_drops_pairs_before_they_are_pushed(monkeypatch, capsys):
    # A deterministic guard in place of a timing test: with the
    # Gebauer-Moeller update and sugar selection, `bf classic x*y*(x+y)`
    # pushes 59 pairs onto the pair heap and forms 58 S-polynomials; with
    # selection by lcm degree it pushed 103 and formed 79, and scanning the
    # basis for the chain criterion at each popped pair, it pushed 389.
    pushed, formed = [0], [0]
    push, s_pair = heapq.heappush, groebner._s_pair

    def counted_push(heap, item):
        pushed[0] += type(item[-1]) is int  # a pair's key ends in its indices
        push(heap, item)

    def counted_s_pair(*args):
        formed[0] += 1
        return s_pair(*args)

    monkeypatch.setattr(groebner.heapq, "heappush", counted_push)
    monkeypatch.setattr(groebner, "_s_pair", counted_s_pair)
    assert main(["bf", "classic", "x*y*(x+y)", "--json"]) == 0
    assert 0 < pushed[0] <= 65
    assert 0 < formed[0] <= 60


def test_elimination_reduces_few_elements(monkeypatch, capsys):
    # A deterministic guard in place of a timing test: with sugar selection
    # and an elimination that interreduces only the elements it returns,
    # `bf classic x*y*(x+y)` makes 60 `normal_form` calls in its two
    # `buchberger` runs; with selection by lcm degree and a full
    # interreduction it made 104.
    calls = [0]
    reduce = groebner.normal_form

    def counted(*args, **kwargs):
        calls[0] += 1
        return reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", counted)
    assert main(["bf", "classic", "x*y*(x+y)", "--json"]) == 0
    assert 0 < calls[0] <= 65


def test_buchberger_reduces_over_the_integers(monkeypatch, capsys):
    # A deterministic guard in place of a timing test: with S-polynomials
    # formed over the integers, `bf classic x*y*(x+y)` builds 21 Fractions
    # inside buchberger, each where a nonzero remainder term is divided by
    # its reduction's scale; dividing each S-polynomial by its leading
    # coefficients built 418, and the rational reduction loop 8,032.
    made, inside = [0], [False]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += inside[0]
        return new(cls, *args, **kwargs)

    run = groebner.buchberger

    def traced(*args, **kwargs):
        inside[0] = True
        try:
            return run(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(Fraction, "__new__", counted)
    monkeypatch.setattr(groebner, "buchberger", traced)
    assert main(["bf", "classic", "x*y*(x+y)", "--json"]) == 0
    assert 0 < made[0] < 50


# -- elimination interreduces only what it returns ---------------------------
#
# Under an elimination order, the elements of the reduced basis whose
# leading monomial is free of the dropped generators are free of them
# altogether, and reduced by free elements alone.  So `buchberger` with
# free_of must return exactly the free part of the reference's reduced
# basis, though it interreduces no other element.


def _free_part(basis, positions):
    return [g for g in basis if not any(e[p] for e in g.terms for p in positions)]


def _check_free_part(sig, gens, drop, cap):
    """Compare; False when either side exceeds cap."""
    order = MonomialOrder.weight(sig, {name: 1 for name in drop})
    positions = sorted(sig.index(name) for name in drop)
    try:
        got = buchberger(sig, gens, order, cap, free_of=positions)
        want = _free_part(reference_buchberger(sig, gens, order, cap), positions)
    except CapabilityError:
        return False
    assert got == want, drop
    return True


@pytest.mark.parametrize("alg", ["D1", "D2"])
def test_kept_only_interreduction_matches_the_free_part(alg):
    sig, names = {"D1": (D1, ["x"]), "D2": (D2, ["x", "y"])}[alg]
    drops = {"D1": [["x", "dx"]], "D2": [["y", "dy"], ["x", "dx", "y", "dy"]]}[alg]
    compared = 0
    for trial in range(12):
        gens = _annihilator_like(random.Random(f"{alg}-elim-{trial}"), sig, names)
        for drop in drops:
            compared += _check_free_part(sig, gens, drop, 6)
    assert compared >= 5 * len(drops)


@pytest.mark.parametrize(
    "argv",
    [
        ["classic", "x^2"],
        ["classic", "x^2*y"],
        ["classic", "x^2*y^3"],
        ["classic", "x^2+y^3"],
        ["classic", "x^3+y^3"],
        ["classic", "x^2+y^4"],
        ["classic", "x^2+y^2+z^2"],
        ["classic", "x*y*(x+y)"],
        ["sabbah-line", "x", "y"],
        ["sabbah-line", "x^2", "y"],
    ],
)
def test_bf_eliminations_match_the_free_part(argv, monkeypatch, capsys):
    # the Ann(F^s) elimination of d_t, then the one to Q[s], on the bf
    # inputs of the cli-classic benchmark but x^3+y^4, where the plain
    # reference loop takes 4 s
    from mbfun import annihilator, vfiltration

    recorded = []

    def recording(ideal, drop):
        recorded.append((ideal.sig, list(ideal.generators), list(drop)))
        return eliminate(ideal, drop)

    monkeypatch.setattr(annihilator, "eliminate", recording)
    monkeypatch.setattr(vfiltration, "eliminate", recording)
    assert main(["bf", *argv, "--json"]) == 0
    assert len(recorded) == 2
    for sig, gens, drop in recorded:
        assert _check_free_part(sig, gens, drop, max_degree_cap())


# -- differential test of the reduction loop --------------------------------
#
# The reference is the plain rational loop: at every step it takes the
# leading monomial of the whole working element, cancels it with the first
# basis element whose leading monomial divides it (or moves it to the
# remainder), and checks the degree of what is left after each cancellation.
# `normal_form` must return the same terms, in the same order and with the
# same value types (int where integral, Fraction otherwise), and raise
# CapabilityError exactly where the reference does.


def reference_normal_form(elem, basis, order, cap):
    return reference_reduction(elem, basis, order, cap, [0] * len(basis), 0)[0]


def reference_reduction(elem, basis, order, cap, sugars, sugar):
    """(the normal form of elem, elem's sugar as the reduction raises it):
    a step with x^cof * basis[i] raises it to sugars[i] + deg x^cof."""
    sig = elem.sig
    lms = [_lm(g, order) for g in basis]
    done = {}
    work = elem
    while not work.is_zero():
        exps = _lm(work, order)
        coeff = work.terms[exps]
        reducer = next((k for k, lm in enumerate(lms) if _divides(lm, exps)), None)
        if reducer is None:
            done[exps] = coeff
            work = WeylElement(sig, {e: c for e, c in work.terms.items() if e != exps})
            continue
        g, lm = basis[reducer], lms[reducer]
        cof = tuple(a - b for a, b in zip(exps, lm))
        sugar = max(sugar, sugars[reducer] + sum(cof))
        work = work + WeylElement(sig, {cof: -div(coeff, g.terms[lm])}) * g
        if work.total_degree() > cap:
            raise CapabilityError(f"reduction exceeded degree cap {cap}")
    return WeylElement(sig, done), sugar


COEFFS = [-2, -1, 1, 2, 3, Q(1, 2), Q(-2, 3)]


def _random_element(rng, sig, nterms, degree, coeffs):
    terms = {}
    for _ in range(nterms):
        e = [0] * sig.ngens
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(sig.ngens)] += 1
        terms[tuple(e)] = rng.choice(coeffs)
    return WeylElement(sig, terms)


def _outcome(fn, elem, basis, order, cap):
    try:
        r = fn(elem, basis, order, cap)
    except CapabilityError:
        return "cap"
    return [(e, c, type(c)) for e, c in r.terms.items()]


@pytest.mark.parametrize("order_name", sorted(NF_ORDERS))
@pytest.mark.parametrize("alg", ["D1", "D2"])
def test_normal_form_matches_reference_loop(alg, order_name):
    sig, names = {"D1": (D1, ["x"]), "D2": (D2, ["x", "y"])}[alg]
    order = NF_ORDERS[order_name](sig)
    counts = {"cap": 0, "fraction": 0, "reduced": 0, "sugar raised": 0}
    for trial in range(40):
        rng = random.Random(f"nf-{alg}-{order_name}-{trial}")
        # integer elements, as in a Buchberger run, and rational ones
        coeffs = COEFFS if trial % 2 else COEFFS[:5]
        if trial % 4 == 0 and not order.has_negative_weight():
            gens = _annihilator_like(rng, sig, names)
            try:
                basis = buchberger(sig, gens, order, 6)
            except CapabilityError:
                continue
        else:
            basis = [
                _random_element(rng, sig, rng.randint(1, 3), 2, coeffs)
                for _ in range(rng.randint(1, 4))
            ]
        elem = _random_element(rng, sig, rng.randint(1, 6), 4, coeffs)
        for cap in (3, 24):
            want = _outcome(reference_normal_form, elem, basis, order, cap)
            assert _outcome(normal_form, elem, basis, order, cap) == want, (trial, cap)
            if want == "cap":
                counts["cap"] += 1
            elif want != [(e, c, type(c)) for e, c in elem.terms.items()]:
                counts["reduced"] += 1
                counts["fraction"] += any(t is Fraction for _, _, t in want)
                sugars = [g.total_degree() + k % 3 for k, g in enumerate(basis)]
                start = elem.total_degree()
                sugar = [start]
                normal_form(elem, basis, order, cap, _sugars=sugars, _sugar=sugar)
                want_sugar = reference_reduction(elem, basis, order, cap, sugars, start)[1]
                assert sugar == [want_sugar], (trial, cap)
                counts["sugar raised"] += want_sugar > start
    assert all(counts.values()), counts

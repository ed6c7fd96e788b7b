"""Left Groebner bases in PBW algebras.

Buchberger with normal (minimal-lcm) selection, the PBW-safe product
criterion and the chain criterion.  Weight orders with negative components
(the V-filtration weight) run through the degree-homogenized algebra so
that every reduction stays inside one graded piece and terminates.

Each basis element's leading monomial is computed once, when the element
enters the basis, and read from then on.  Pending pairs sit in a heap
keyed by (lcm degree, order key of the lcm, i, j), each key computed when
its pair is created; the indices make keys unique, so the pop order is
that of a `min` over all pending pairs.

A reduction runs over the integers.  The element's denominators are
cleared once, into a scale mu; a step that cancels a term c*x^e with a
basis element g scales what is left by lc(g)/gamma and subtracts
(c/gamma) * x^(e - lm(g)) * g, where gamma = gcd(c, lc(g)), so a Fraction
is built only when a remainder term is divided by mu.  What is left sits
in one dict, and its monomials in a heap, each keyed by the order once,
when it enters.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import le, neg, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapabilityError
from .rationals import ZERO, div
from .weyl import AlgebraSignature, Exponent, MonomialOrder, WeylElement, _mono_product

DEFAULT_MAX_DEGREE = 24


def max_degree_cap() -> int:
    """The degree cap of Buchberger's basis elements: MBFUN_MAX_DEGREE, a
    nonnegative integer, when set; ValueError naming it otherwise."""
    text = os.environ.get("MBFUN_MAX_DEGREE")
    if text is None:
        return DEFAULT_MAX_DEGREE
    if not text.strip().isdecimal():
        raise ValueError(f"MBFUN_MAX_DEGREE must be a nonnegative integer, got {text!r}")
    return int(text)


def leading_exps(elem: WeylElement, order: MonomialOrder) -> Exponent:
    return max(elem.terms, key=order.key)


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _heap_key(order: MonomialOrder, exps: Exponent) -> tuple:
    """Negated order key: the smallest heap key is the largest monomial."""
    return tuple(map(neg, order.key(exps)))


def _mono(sig: AlgebraSignature, exps: Exponent, coeff) -> WeylElement:
    """The term coeff * exps; coeff must be a nonzero exact rational."""
    return WeylElement._trusted(sig, {exps: coeff})


def _reducer(lms: Sequence[Exponent], exps: Exponent) -> Optional[int]:
    """Index of the first leading monomial dividing exps, or None."""
    for i, lm in enumerate(lms):
        if _divides(lm, exps):
            return i
    return None


def _cleared(terms: Dict[Exponent, object]) -> Tuple[Dict[Exponent, int], int]:
    """(mu * terms, mu) for the least positive integer mu that makes every
    coefficient an integer."""
    mu = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (mu // c.denominator) for e, c in terms.items()}, mu


def normal_form(
    elem: WeylElement,
    basis: Sequence[WeylElement],
    order: MonomialOrder,
    cap: Optional[int] = None,
    _lms: Optional[Sequence[Exponent]] = None,
) -> WeylElement:
    """Fully reduce elem against basis; the remainder's terms avoid all lms.

    Each step takes the largest monomial left, cancels it with the first
    basis element whose leading monomial divides it, or moves it to the
    remainder.  CapabilityError is raised when a cancellation leaves a
    term of total degree above cap.

    _lms, when given, are the leading monomials of basis in its order: a
    Buchberger run keeps them, so its reductions do not recompute them."""
    if cap is None:
        cap = max_degree_cap()
    sig = elem.sig
    lms = _lms if _lms is not None else [leading_exps(g, order) for g in basis]
    # work / mu is what is left of elem; reducers[i] is an integer multiple
    # of basis[i], which gives the same cancellations
    work, mu = _cleared(elem.terms)
    reducers: Dict[int, Dict[Exponent, int]] = {}
    heap = [(_heap_key(order, e), e) for e in work]
    heapq.heapify(heap)
    above = sum(sum(e) > cap for e in work)
    done: Dict[Exponent, object] = {}
    while heap:
        entry = heapq.heappop(heap)
        exps = entry[1]
        coeff = work.get(exps)
        if coeff is None:
            continue
        i = _reducer(lms, exps)
        if i is None:
            del work[exps]
            above -= sum(exps) > cap
            done[exps] = div(coeff, mu)
            continue
        if i not in reducers:
            reducers[i] = _cleared(basis[i].terms)[0]
        g, lm = reducers[i], lms[i]
        # (lc / gamma) * work - (coeff / gamma) * x^cof * g cancels exps
        gamma = gcd(coeff, g[lm])
        scale, q = g[lm] // gamma, coeff // gamma
        if scale != 1:
            for e in work:
                work[e] *= scale
            mu *= scale
        cof = tuple(map(sub, exps, lm))
        for e2, c2 in g.items():
            qc = q * c2
            for e, k in _mono_product(sig, cof, e2):
                t = qc * k
                acc = work.get(e)
                if acc is None:
                    work[e] = -t
                    heapq.heappush(heap, (_heap_key(order, e), e))
                    above += sum(e) > cap
                elif acc == t:
                    del work[e]
                    above -= sum(e) > cap
                else:
                    work[e] = acc - t
        if exps in work:  # only under an order not compatible with products
            heapq.heappush(heap, entry)
        # the total degree of what is left (0 when nothing is) exceeds cap
        if above or cap < 0:
            raise CapabilityError(
                f"reduction exceeded degree cap {cap} (MBFUN_MAX_DEGREE)"
            )
    return WeylElement._trusted(sig, done)


def _s_pair(f: WeylElement, lf: Exponent, g: WeylElement, lg: Exponent) -> WeylElement:
    """x^uf f / lc(f) - x^ug g / lc(g), formed over the integers and
    divided once; f and g have integer coefficients."""
    sig = f.sig
    lcm_fg = _lcm(lf, lg)
    uf = tuple(map(sub, lcm_fg, lf))
    ug = tuple(map(sub, lcm_fg, lg))
    gamma = gcd(f.terms[lf], g.terms[lg])
    a, b = g.terms[lg] // gamma, f.terms[lf] // gamma
    diff = _mono(sig, uf, a) * f - _mono(sig, ug, b) * g
    den = a * f.terms[lf]
    return WeylElement._trusted(sig, {e: div(c, den) for e, c in diff.terms.items()})


def _product_criterion_safe(sig: AlgebraSignature, a: Exponent, b: Exponent) -> bool:
    """Disjoint supports with no conjugate or shift pair split across the
    monomials."""
    if any(min(x, y) for x, y in zip(a, b)):
        return False
    for ci, di in sig.pairs + sig.shift_pairs:
        if (a[di] and b[ci]) or (b[di] and a[ci]):
            return False
    return True


def buchberger(
    sig: AlgebraSignature,
    generators: Sequence[WeylElement],
    order: MonomialOrder,
    cap: Optional[int] = None,
) -> List[WeylElement]:
    if cap is None:
        cap = max_degree_cap()
    order.check_admissible(sig)
    if order.has_negative_weight():
        return _buchberger_homogenized(sig, generators, order, cap)
    basis = [g.content_primitive() for g in generators if not g.is_zero()]
    return _interreduce(*_buchberger_core(sig, basis, order, cap), order, cap)


def _buchberger_core(
    sig: AlgebraSignature,
    basis: List[WeylElement],
    order: MonomialOrder,
    cap: int,
) -> Tuple[List[WeylElement], List[Exponent]]:
    """Complete basis in place; return it with its leading monomials."""
    lms: List[Exponent] = []
    heap: List[tuple] = []

    def enter(g: WeylElement) -> None:
        new, lm = len(lms), leading_exps(g, order)
        for k, lk in enumerate(lms):
            lcm = _lcm(lm, lk)
            heapq.heappush(heap, (sum(lcm),) + tuple(order.key(lcm)) + (new, k))
        lms.append(lm)

    for g in basis:
        enter(g)
    done = set()
    while heap:
        i, j = heapq.heappop(heap)[-2:]
        done.add((i, j))
        li, lj = lms[i], lms[j]
        if _product_criterion_safe(sig, li, lj):
            continue
        lcm = _lcm(li, lj)
        if any(
            k != i
            and k != j
            and _divides(lk, lcm)
            and (max(i, k), min(i, k)) in done
            and (max(j, k), min(j, k)) in done
            for k, lk in enumerate(lms)
        ):
            continue
        h = normal_form(
            _s_pair(basis[i], li, basis[j], lj), basis, order, cap, _lms=lms
        )
        if h.is_zero():
            continue
        if h.total_degree() > cap:
            raise CapabilityError(
                f"basis element exceeds degree cap {cap} (MBFUN_MAX_DEGREE)"
            )
        basis.append(h.content_primitive())
        enter(basis[-1])
    return basis, lms


def _interreduce(
    basis: List[WeylElement], lms: List[Exponent], order: MonomialOrder, cap: int
) -> List[WeylElement]:
    """Drop elements whose lm another lm divides, then tail-reduce.

    The kept lms are distinct and none divides another, so each reduction
    keeps its element's leading term and the result stays sorted."""
    ranked = sorted(zip(basis, lms), key=lambda p: order.key(p[1]))
    kept = [
        (g, lm)
        for idx, (g, lm) in enumerate(ranked)
        if not any(
            _divides(lo, lm) and (lo != lm or o < idx)
            for o, (_, lo) in enumerate(ranked)
            if o != idx
        )
    ]
    final = []
    for idx, (g, _) in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        if others:
            g = normal_form(
                g, [o for o, _ in others], order, cap, _lms=[lo for _, lo in others]
            )
        final.append(g.content_primitive())
    return final


# -- homogenized route for negative weights ------------------------------


def _homogenize_elem(elem: WeylElement, sig_h: AlgebraSignature) -> WeylElement:
    nc = len(sig_h.coords) - 1
    d = elem.total_degree()
    terms = {}
    for exps, coeff in elem.terms.items():
        exps_h = exps[:nc] + (d - sum(exps),) + exps[nc:]
        terms[exps_h] = coeff
    return WeylElement(sig_h, terms)


def _dehomogenize_elem(elem: WeylElement, sig: AlgebraSignature) -> WeylElement:
    nc = len(sig.coords)
    terms: Dict[Exponent, object] = {}
    for exps, coeff in elem.terms.items():
        key = exps[:nc] + exps[nc + 1 :]
        acc = terms.get(key, ZERO) + coeff
        if acc == 0:
            terms.pop(key, None)
        else:
            terms[key] = acc
    return WeylElement(sig, terms)


def _buchberger_homogenized(
    sig: AlgebraSignature,
    generators: Sequence[WeylElement],
    order: MonomialOrder,
    cap: int,
) -> List[WeylElement]:
    sig_h = sig.homogenized()
    order_h = order.extended(sig_h)
    gens_h = [
        _homogenize_elem(g.content_primitive(), sig_h)
        for g in generators
        if not g.is_zero()
    ]
    basis_h, _ = _buchberger_core(sig_h, gens_h, order_h, cap)
    basis = [_dehomogenize_elem(g, sig) for g in basis_h]
    basis = [g.content_primitive() for g in basis if not g.is_zero()]
    # no full interreduction here: that could spoil w-adaptedness; dedupe only
    seen = set()
    out = []
    for g in sorted(basis, key=lambda g: order.key(leading_exps(g, order))):
        key = tuple(sorted(g.terms.items()))
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


# -- public ideal wrapper -------------------------------------------------


@dataclass
class LeftIdeal:
    sig: AlgebraSignature
    generators: List[WeylElement]
    _bases: Dict[MonomialOrder, List[WeylElement]] = field(default_factory=dict)

    def groebner(self, order: Optional[MonomialOrder] = None) -> List[WeylElement]:
        if order is None:
            order = MonomialOrder.degrevlex()
        if order not in self._bases:
            self._bases[order] = buchberger(self.sig, self.generators, order)
        return self._bases[order]

    def normal_form(self, elem: WeylElement, order: Optional[MonomialOrder] = None) -> WeylElement:
        if order is None:
            order = MonomialOrder.degrevlex()
        return normal_form(elem, self.groebner(order), order)

    def contains(self, elem: WeylElement, order: Optional[MonomialOrder] = None) -> bool:
        return self.normal_form(elem, order).is_zero()


def eliminate(ideal: LeftIdeal, drop: Sequence[str]) -> LeftIdeal:
    """Intersect with the subalgebra on the kept generators.

    drop must hold both or neither name of each (x_i, d_i) pair; it may hold
    central names, and of a shift pair (s, d_t) both names, neither, or d_t
    alone, whereupon s is central in what is kept.  The order is the weight
    1 on each dropped generator, ties broken by degrevlex; it is an
    elimination order, so the elements of its Groebner basis that are free
    of dropped generators generate the intersection.  Their exponents move
    to the smaller signature by generator name.
    """
    sig = ideal.sig
    drop = set(drop)
    positions = {sig.index(name) for name in drop}
    for ci, di in sig.pairs:
        if (ci in positions) != (di in positions):
            raise ValueError("drop set must contain matched (x, d) pairs")
    for si, ti in sig.shift_pairs:
        if si in positions and ti not in positions:
            raise ValueError("drop set must not hold s of a shift pair without its d_t")
    order = MonomialOrder.weight(sig, {name: 1 for name in drop})
    names = sig.names
    kept_shifts = [(names[si], names[ti]) for si, ti in sig.shift_pairs if ti not in positions]
    paired = {c for c, _ in sig.pair_names} | {s for s, _ in kept_shifts}
    sub_sig = AlgebraSignature.make(
        pairs=[p for p in sig.pair_names if p[0] not in drop],
        central=[c for c in sig.coords if c not in paired and c not in drop],
        shift_pairs=kept_shifts,
    )
    source = [sig.index(name) for name in sub_sig.names]
    moved = [
        WeylElement(sub_sig, {tuple(e[i] for i in source): c for e, c in g.terms.items()})
        for g in ideal.groebner(order)
        if all(not any(e[p] for p in positions) for e in g.terms)
    ]
    return LeftIdeal(sub_sig, moved)


def initial_form(elem: WeylElement, order: MonomialOrder) -> WeylElement:
    if elem.is_zero():
        return elem
    top = max(order.wdeg(e) for e in elem.terms)
    return WeylElement(
        elem.sig, {e: c for e, c in elem.terms.items() if order.wdeg(e) == top}
    )

"""Left Groebner bases in PBW algebras.

Buchberger with sugar selection (Giovini, Mora, Niesi, Robbiano and
Traverso, "One sugar cube, please", ISSAC 1991) and the Gebauer-Moeller
pair update (Gebauer and Moeller, J. Symbolic Comput. 6, 1988), which rests
on the chain criterion; that criterion holds in the PBW algebras used here
(Levandovskyy, PhD thesis, Kaiserslautern 2005).  When an element enters
the basis, a pending pair whose lcm its leading monomial divides strictly
on both sides is dropped (B criterion); of its new pairs, one whose lcm is
a proper multiple of another's is dropped (M), pairs of equal lcm are kept
once (F), and none is kept for an lcm where the product criterion applies,
which is only where `_product_criterion_safe` allows it.  A pair taken from
the heap is therefore reduced without a scan over the basis.  Orders with
a negative weight are refused: under them a monomial can have infinitely
many below it, and a reduction need not terminate.  The V-filtration
weight's initial ideals are found by saturation instead
(`vfiltration.theta_reduce`).

Each basis element's leading monomial, and its divisibility mask (one bit
per generator that occurs), are computed once, when the element enters the
basis, and read from then on.  An element stays a pair partner and a
reducer after a later leading monomial divides its own: under an
elimination order the older element's tail is often of far lower degree,
so the first reducer in basis order, and the oldest partner among new
pairs of equal lcm, keep S-polynomials and remainders small and under the
degree cap.

Each basis element carries a sugar: an input's is its total degree, and a
reduced S-polynomial's is its pair's, raised to sugar(g) + deg x^u by each
reduction step that subtracts a multiple of x^u * g.  A pair's sugar is
max(sugar(f) + deg x^uf, sugar(g) + deg x^ug), the degree its S-polynomial
would have if the elements were made homogeneous.  Pending pairs sit in a
heap keyed by (sugar, lcm degree, order key of the lcm, i, j), each key
computed when its pair is created; the indices make keys unique.  Under an
elimination order the elements are far from homogeneous, and the lcm
degree says little about what a pair will produce: for `bf classic
x*y*(x+y)`, sugar selection forms 58 S-polynomials where selection by lcm
degree formed 79.  On homogeneous input a pair's sugar is its lcm degree,
and the key orders pairs as selection by lcm degree did.

An S-polynomial is a*x^uf*f - b*x^ug*g with the least integers a, b that
cancel the leading terms, so it stays over the integers.  A reduction runs
over the integers too.  The element's denominators are cleared once, into a
scale mu; a step that cancels a term c*x^e with a basis element g scales
what is left by lc(g)/gamma and subtracts (c/gamma) * x^(e - lm(g)) * g,
where gamma = gcd(c, lc(g)), so a Fraction is built only when a remainder
term is divided by mu.  What is left sits in one dict, and its monomials in
a heap, each keyed by the order once, when it enters.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import le, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapabilityError
from .rationals import div
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


def _mask(exps: Exponent) -> int:
    """Bit v set iff exps[v] > 0: a monomial whose mask has a bit that
    another's lacks does not divide it."""
    return sum(1 << v for v, k in enumerate(exps) if k)


def _reducer(lms: Sequence[Exponent], masks: Sequence[int], exps: Exponent) -> Optional[int]:
    """Index of the first leading monomial dividing exps, or None; masks
    are those of lms."""
    outside = ~_mask(exps)
    for i, m in enumerate(masks):
        if not m & outside and _divides(lms[i], exps):
            return i
    return None


def _cleared(terms: Dict[Exponent, object]) -> Tuple[Dict[Exponent, int], int]:
    """(mu * terms, mu) for the least positive integer mu that makes every
    coefficient an integer: (terms, 1) itself when they are integers."""
    if all(type(c) is int for c in terms.values()):
        return terms, 1
    mu = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (mu // c.denominator) for e, c in terms.items()}, mu


def normal_form(
    elem: WeylElement,
    basis: Sequence[WeylElement],
    order: MonomialOrder,
    cap: Optional[int] = None,
    _lms: Optional[Sequence[Exponent]] = None,
    _masks: Optional[Sequence[int]] = None,
    _sugars: Optional[Sequence[int]] = None,
    _sugar: Optional[List[int]] = None,
) -> WeylElement:
    """Fully reduce elem against basis; the remainder's terms avoid all lms.

    Each step takes the largest monomial left, cancels it with the first
    basis element whose leading monomial divides it, or moves it to the
    remainder.  CapabilityError is raised when a cancellation leaves a
    term of total degree above cap.

    _lms, when given, are the leading monomials of basis in its order, and
    _masks their `_mask`s: a Buchberger run keeps both, so its reductions
    do not recompute them.  _sugars, when given, are the sugars of basis,
    and _sugar a one-item list holding elem's: a step that cancels with
    x^cof * basis[i] raises it to at least _sugars[i] + deg x^cof."""
    if cap is None:
        cap = max_degree_cap()
    sig = elem.sig
    lms = _lms if _lms is not None else [leading_exps(g, order) for g in basis]
    masks = _masks if _masks is not None else [_mask(lm) for lm in lms]
    # work / mu is what is left of elem; reducers[i] is an integer multiple
    # of basis[i], which gives the same cancellations
    work, mu = _cleared(elem.terms)
    work = dict(work)  # may be elem's own terms, and changes below
    reducers: Dict[int, Dict[Exponent, int]] = {}
    heap = [(order.heap_key(e), e) for e in work]
    heapq.heapify(heap)
    above = sum(sum(e) > cap for e in work)
    done: Dict[Exponent, object] = {}
    while heap:
        exps = heapq.heappop(heap)[1]
        coeff = work.get(exps)
        if coeff is None:
            continue
        i = _reducer(lms, masks, exps)
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
        if _sugar is not None:
            _sugar[0] = max(_sugar[0], _sugars[i] + sum(cof))
        for e2, c2 in g.items():
            qc = q * c2
            for e, k in _mono_product(sig, cof, e2):
                t = qc * k
                acc = work.get(e)
                if acc is None:
                    work[e] = -t
                    heapq.heappush(heap, (order.heap_key(e), e))
                    above += sum(e) > cap
                elif acc == t:
                    del work[e]
                    above -= sum(e) > cap
                else:
                    work[e] = acc - t
        # the total degree of what is left (0 when nothing is) exceeds cap
        if above or cap < 0:
            raise CapabilityError(
                f"reduction exceeded degree cap {cap} (MBFUN_MAX_DEGREE)"
            )
    return WeylElement._trusted(sig, done)


def _s_pair(f: WeylElement, lf: Exponent, g: WeylElement, lg: Exponent) -> WeylElement:
    """a x^uf f - b x^ug g for the least positive a, b with a lc(f) =
    b lc(g): over the integers, since f and g have integer coefficients."""
    sig = f.sig
    lcm_fg = _lcm(lf, lg)
    gamma = gcd(f.terms[lf], g.terms[lg])
    terms: Dict[Exponent, int] = {}
    for elem, lm, scale in ((f, lf, g.terms[lg] // gamma), (g, lg, -(f.terms[lf] // gamma))):
        u = tuple(map(sub, lcm_fg, lm))
        for e2, c2 in elem.terms.items():
            c = scale * c2
            for e, k in _mono_product(sig, u, e2):
                acc = terms.get(e, 0) + c * k
                if acc:
                    terms[e] = acc
                else:
                    del terms[e]
    return WeylElement._trusted(sig, terms)


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
    free_of: Sequence[int] = (),
) -> List[WeylElement]:
    """The reduced Groebner basis of the left ideal of generators;
    ValueError for an order with a negative weight.

    free_of, positions of generators that order eliminates, keeps only the
    elements whose leading monomial is free of them, and only those are
    interreduced (`_interreduce`)."""
    if cap is None:
        cap = max_degree_cap()
    order.check_admissible(sig)
    if order.has_negative_weight():
        raise ValueError("Groebner bases need nonnegative weights")
    basis = [g.content_primitive() for g in generators if not g.is_zero()]
    return _interreduce(*_buchberger_core(sig, basis, order, cap), order, cap, free_of)


def _buchberger_core(
    sig: AlgebraSignature,
    basis: List[WeylElement],
    order: MonomialOrder,
    cap: int,
) -> Tuple[List[WeylElement], List[Exponent]]:
    """Complete basis in place; return it with its leading monomials."""
    lms: List[Exponent] = []
    masks: List[int] = []
    sugars: List[int] = []
    pending: Dict[Tuple[int, int], Exponent] = {}  # (i, j), i > j -> lcm
    heap: List[tuple] = []

    def enter(g: WeylElement, sugar: int) -> None:
        new, lm = len(lms), leading_exps(g, order)
        dlm = sum(lm)
        # B: lm divides the lcm, and the lcms of lm with either side of the
        # pair are proper divisors of it
        for (i, j), lcm in list(pending.items()):
            if _divides(lm, lcm) and _lcm(lms[i], lm) != lcm and _lcm(lms[j], lm) != lcm:
                del pending[i, j]
        with_lcm: Dict[Exponent, List[int]] = {}
        for k, lk in enumerate(lms):
            with_lcm.setdefault(_lcm(lm, lk), []).append(k)
        # M: drop a pair whose lcm has a proper divisor among the new lcms;
        # in order of degree, such a divisor is one of those kept so far.
        # F with the product criterion: one pair per lcm, none when one of
        # them reduces to zero (its lcm still counts for M)
        minimal: List[Exponent] = []
        for lcm in sorted(with_lcm, key=sum):
            if any(_divides(other, lcm) for other in minimal):
                continue
            minimal.append(lcm)
            ks = with_lcm[lcm]
            # disjoint supports only: their degrees add up to the lcm's
            d = sum(lcm)
            if any(
                d == dlm + sum(lms[k]) and _product_criterion_safe(sig, lm, lms[k])
                for k in ks
            ):
                continue
            k = ks[0]
            pending[new, k] = lcm
            pair_sugar = max(sugar + d - dlm, sugars[k] + d - sum(lms[k]))
            heapq.heappush(heap, (pair_sugar, d) + tuple(order.key(lcm)) + (new, k))
        lms.append(lm)
        masks.append(_mask(lm))
        sugars.append(sugar)

    for g in basis:
        enter(g, g.total_degree())
    while heap:
        entry = heapq.heappop(heap)
        pair = entry[-2:]
        if pending.pop(pair, None) is None:
            continue
        i, j = pair
        sugar = [entry[0]]
        h = normal_form(
            _s_pair(basis[i], lms[i], basis[j], lms[j]),
            basis,
            order,
            cap,
            _lms=lms,
            _masks=masks,
            _sugars=sugars,
            _sugar=sugar,
        )
        if h.is_zero():
            continue
        if h.total_degree() > cap:
            raise CapabilityError(
                f"basis element exceeds degree cap {cap} (MBFUN_MAX_DEGREE)"
            )
        basis.append(h.content_primitive())
        enter(basis[-1], sugar[0])
    return basis, lms


def _interreduce(
    basis: List[WeylElement],
    lms: List[Exponent],
    order: MonomialOrder,
    cap: int,
    free_of: Sequence[int],
) -> List[WeylElement]:
    """Drop elements whose lm another lm divides, then tail-reduce.

    The weights here are nonnegative, so a divisor of a monomial ranks
    below it: of equal lms the first is kept, and an element's tail, below
    its lm, is reduced by the elements ranked before it alone, which are
    reduced already.  The kept lms are distinct and none divides another,
    so each reduction keeps its element's leading term and the result
    stays sorted.

    Elements whose lm has a generator of free_of are left out first.  When
    order eliminates those generators, a free lm has a free tail, every lm
    that divides a free monomial is free, and the free lms rank first; so
    the rest is the free part of the full result, reduced by free elements
    alone."""
    ranked = sorted(
        ((g, lm) for g, lm in zip(basis, lms) if not any(lm[v] for v in free_of)),
        key=lambda p: order.key(p[1]),
    )
    kept = [
        (g, lm)
        for idx, (g, lm) in enumerate(ranked)
        if not any(_divides(lo, lm) for _, lo in ranked[:idx])
    ]
    kept_lms = [lm for _, lm in kept]
    kept_masks = [_mask(lm) for lm in kept_lms]
    final: List[WeylElement] = []
    for idx, (g, _) in enumerate(kept):
        if idx:
            g = normal_form(g, final, order, cap, _lms=kept_lms[:idx], _masks=kept_masks[:idx])
        final.append(g.content_primitive())
    return final


# -- public ideal wrapper -------------------------------------------------


@dataclass
class LeftIdeal:
    sig: AlgebraSignature
    generators: List[WeylElement]
    _bases: Dict[MonomialOrder, List[WeylElement]] = field(default_factory=dict)

    def groebner(self, order: MonomialOrder) -> List[WeylElement]:
        if order not in self._bases:
            self._bases[order] = buchberger(self.sig, self.generators, order)
        return self._bases[order]

    def contains(self, elem: WeylElement) -> bool:
        """Membership, by reduction against the degrevlex basis."""
        order = MonomialOrder.degrevlex()
        return normal_form(elem, self.groebner(order), order).is_zero()


def eliminate(ideal: LeftIdeal, drop: Sequence[str]) -> LeftIdeal:
    """Intersect with the subalgebra on the kept generators.

    drop must hold both or neither name of each (x_i, d_i) pair and the
    d_t of each shift pair (s, d_t); it may hold central names and the s
    of a shift pair, and each s it keeps is central in what is kept.  The
    order is the weight 1 on each dropped generator, ties broken by
    degrevlex; it is an elimination order, so the elements of its Groebner
    basis that are free of dropped generators generate the intersection.
    `buchberger` returns those alone, interreducing no other element.
    Their exponents move to the smaller signature by generator name.
    """
    sig = ideal.sig
    drop = set(drop)
    positions = {sig.index(name) for name in drop}
    for ci, di in sig.pairs:
        if (ci in positions) != (di in positions):
            raise ValueError("drop set must contain matched (x, d) pairs")
    if any(ti not in positions for _, ti in sig.shift_pairs):
        raise ValueError("drop set must hold the d_t of every shift pair")
    order = MonomialOrder.weight(sig, {name: 1 for name in drop})
    paired = {c for c, _ in sig.pair_names}
    sub_sig = AlgebraSignature.make(
        pairs=[p for p in sig.pair_names if p[0] not in drop],
        central=[c for c in sig.coords if c not in paired and c not in drop],
    )
    source = [sig.index(name) for name in sub_sig.names]
    moved = [
        WeylElement(sub_sig, {tuple(e[i] for i in source): c for e, c in g.terms.items()})
        for g in buchberger(sig, ideal.generators, order, free_of=sorted(positions))
    ]
    return LeftIdeal(sub_sig, moved)

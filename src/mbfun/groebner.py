"""Left Groebner bases in PBW algebras.

Buchberger with normal (minimal-lcm) selection, the PBW-safe product
criterion and the chain criterion.  Weight orders with negative components
(the V-filtration weight) run through the degree-homogenized algebra so
that every reduction stays inside one graded piece and terminates.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .errors import CapabilityError
from .rationals import ZERO
from .weyl import AlgebraSignature, Exponent, MonomialOrder, WeylElement

DEFAULT_MAX_DEGREE = 24


def max_degree_cap() -> int:
    return int(os.environ.get("MBFUN_MAX_DEGREE", DEFAULT_MAX_DEGREE))


def leading_exps(elem: WeylElement, order: MonomialOrder) -> Exponent:
    return max(elem.terms, key=order.key)


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono(sig: AlgebraSignature, exps: Exponent, coeff=1) -> WeylElement:
    return WeylElement(sig, {exps: coeff})


def normal_form(
    elem: WeylElement,
    basis: Sequence[WeylElement],
    order: MonomialOrder,
    cap: Optional[int] = None,
) -> WeylElement:
    """Fully reduce elem against basis; the remainder's terms avoid all lms."""
    if cap is None:
        cap = max_degree_cap()
    sig = elem.sig
    lms = [leading_exps(g, order) for g in basis]
    done: Dict[Exponent, object] = {}
    work = elem
    while not work.is_zero():
        exps = leading_exps(work, order)
        coeff = work.terms[exps]
        reducer = None
        for g, lm in zip(basis, lms):
            if _divides(lm, exps):
                reducer = (g, lm)
                break
        if reducer is None:
            done[exps] = coeff
            work = work - _mono(sig, exps, coeff)
            continue
        g, lm = reducer
        cof = tuple(a - b for a, b in zip(exps, lm))
        scale = coeff / g.terms[lm]
        work = work - _mono(sig, cof, scale) * g
        if work.total_degree() > cap:
            raise CapabilityError(
                f"reduction exceeded degree cap {cap} (MBFUN_MAX_DEGREE)"
            )
    return WeylElement(sig, done)


def _s_pair(f: WeylElement, g: WeylElement, order: MonomialOrder) -> WeylElement:
    sig = f.sig
    lf, lg = leading_exps(f, order), leading_exps(g, order)
    lcm = _lcm(lf, lg)
    uf = tuple(a - b for a, b in zip(lcm, lf))
    ug = tuple(a - b for a, b in zip(lcm, lg))
    return _mono(sig, uf, 1 / f.terms[lf]) * f - _mono(sig, ug, 1 / g.terms[lg]) * g


def _product_criterion_safe(sig: AlgebraSignature, a: Exponent, b: Exponent) -> bool:
    """Disjoint supports with no conjugate pair split across the monomials."""
    if any(min(x, y) for x, y in zip(a, b)):
        return False
    for ci, di in sig.pairs:
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
    return _interreduce(_buchberger_core(sig, basis, order, cap), order, cap)


def _buchberger_core(
    sig: AlgebraSignature,
    basis: List[WeylElement],
    order: MonomialOrder,
    cap: int,
) -> List[WeylElement]:
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    done = set()
    while pairs:
        def _pair_key(p):
            lcm = _lcm(
                leading_exps(basis[p[0]], order), leading_exps(basis[p[1]], order)
            )
            return (sum(lcm),) + tuple(order.key(lcm)) + p
        i, j = min(pairs, key=_pair_key)
        pairs.discard((i, j))
        done.add((i, j))
        li = leading_exps(basis[i], order)
        lj = leading_exps(basis[j], order)
        if _product_criterion_safe(sig, li, lj):
            continue
        lcm = _lcm(li, lj)
        chained = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            lk = leading_exps(basis[k], order)
            pik = (max(i, k), min(i, k))
            pjk = (max(j, k), min(j, k))
            if _divides(lk, lcm) and pik in done and pjk in done:
                chained = True
                break
        if chained:
            continue
        h = normal_form(_s_pair(basis[i], basis[j], order), basis, order, cap)
        if h.is_zero():
            continue
        if h.total_degree() > cap:
            raise CapabilityError(f"basis element exceeds degree cap {cap}")
        basis.append(h.content_primitive())
        new = len(basis) - 1
        pairs.update((new, k) for k in range(new))
    return basis


def _interreduce(
    basis: List[WeylElement], order: MonomialOrder, cap: int
) -> List[WeylElement]:
    # drop elements whose lm is divisible by another lm, then tail-reduce
    basis = sorted(basis, key=lambda g: order.key(leading_exps(g, order)))
    kept: List[WeylElement] = []
    for idx, g in enumerate(basis):
        lm = leading_exps(g, order)
        others = basis[:idx] + basis[idx + 1 :]
        if any(
            _divides(leading_exps(o, order), lm)
            and leading_exps(o, order) != lm
            for o in others
        ) or any(
            leading_exps(o, order) == lm for o in basis[:idx]
        ):
            continue
        kept.append(g)
    final = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1 :]
        if others:
            reduced = normal_form(g, others, order, cap)
            if reduced.is_zero():
                continue
            final.append(reduced.content_primitive())
        else:
            final.append(g.content_primitive())
    return sorted(final, key=lambda g: order.key(leading_exps(g, order)))


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
    basis_h = _buchberger_core(sig_h, gens_h, order_h, cap)
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

    drop must consist of matched (x_i, d_i) pairs; elements
    of the weight-(1 on dropped) Groebner basis free of dropped generators
    generate the intersection.
    """
    sig = ideal.sig
    drop = set(drop)
    positions = {sig.index(name) for name in drop}
    for ci, di in sig.pairs:
        if (ci in positions) != (di in positions):
            raise ValueError("drop set must contain matched (x, d) pairs")
    order = MonomialOrder.weight(sig, {name: 1 for name in drop})
    basis = ideal.groebner(order)
    kept_elems = [
        g for g in basis if all(not any(e[p] for p in positions) for e in g.terms)
    ]
    sub_sig = AlgebraSignature(
        tuple(c for i, c in enumerate(sig.coords) if i not in positions),
        tuple(d for i, d in enumerate(sig.derivs) if i + len(sig.coords) not in positions),
        tuple(
            (_shift(ci, positions), _shift(di, positions))
            for ci, di in sig.pairs
            if ci not in positions
        ),
    )
    keep_positions = [i for i in range(sig.ngens) if i not in positions]
    moved = [
        WeylElement(sub_sig, {tuple(e[i] for i in keep_positions): c for e, c in g.terms.items()})
        for g in kept_elems
    ]
    return LeftIdeal(sub_sig, moved)


def _shift(pos: int, removed: set) -> int:
    return pos - sum(1 for r in removed if r < pos)


def initial_form(elem: WeylElement, order: MonomialOrder) -> WeylElement:
    if elem.is_zero():
        return elem
    top = max(order.wdeg(e) for e in elem.terms)
    return WeylElement(
        elem.sig, {e: c for e, c in elem.terms.items() if order.wdeg(e) == top}
    )

"""Degree-zero reduction along a (t, d_t) pair, and central intersections.

`theta_reduce` serves the initial-ideal route of merobf.  Given a left
ideal I in D[..., t, d_t], the weight w = (t: -1, d_t: +1) filters the
algebra; the degree-zero part of in_w(I) lives in D[...][theta] with
theta = t*d_t, and its intersection with Q[theta] is the b-polynomial
p(theta) of the corresponding section along t = 0, read as b(s) = p(-s-1).
The passage to degree zero uses that every w-degree-(-d) monomial factors
as t^d (resp. d_t^{-d} for d < 0) times a degree-zero one, so one shifted
initial form per Groebner basis element suffices.  Balanced blocks are
written straight in the central variable s = -theta-1:
t^k d_t^k = theta(theta-1)...(theta-k+1) = (-s-1)(-s-2)...(-s-k).

`central_intersection` eliminates every (x, d) pair of an ideal in
D_n[central], and `b_polynomial` reads the monic generator of its
intersection with Q[s]; both serve the annihilator route as well.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .bfunction import BFunction, S_VAR
from .errors import NotSpecializableError
from .groebner import LeftIdeal, eliminate, initial_form
from .multipoly import MultiPoly
from .rationals import ONE, ZERO
from .sections import DT_VAR, T_VAR
from .weyl import AlgebraSignature, MonomialOrder, WeylElement


def _block_in_s(k: int) -> List[int]:
    """Coefficients of t^k d_t^k = (-s-1)(-s-2)...(-s-k), low degree first."""
    coeffs = [ONE]
    for j in range(1, k + 1):
        nxt = [ZERO] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= j * c
            nxt[i + 1] -= c
        coeffs = nxt
    return coeffs


def _s_signature(sig: AlgebraSignature, t_name: str, s_name: str) -> AlgebraSignature:
    paired = {c for c, _ in sig.pair_names}
    return AlgebraSignature.make(
        pairs=[p for p in sig.pair_names if p[0] != t_name],
        central=[c for c in sig.coords if c not in paired] + [s_name],
    )


def _rewrite_balanced(
    elem: WeylElement,
    sig_out: AlgebraSignature,
    t_pos: int,
    dt_pos: int,
) -> WeylElement:
    """Map x^a t^k d^b d_t^k  ->  x^a d^b (-s-1)(-s-2)...(-s-k)."""
    sig = elem.sig
    keep = [i for i in range(sig.ngens) if i not in (t_pos, dt_pos)]
    out_index = [sig_out.index(sig.names[i]) for i in keep]
    s_pos = len(sig_out.coords) - 1  # last coord
    terms: Dict[Tuple[int, ...], object] = {}
    for exps, coeff in elem.terms.items():
        if exps[t_pos] != exps[dt_pos]:
            raise ValueError("element is not of weight degree zero")
        base = [0] * sig_out.ngens
        for src, dst in zip(keep, out_index):
            base[dst] = exps[src]
        for j, c in enumerate(_block_in_s(exps[t_pos])):
            if c == 0:
                continue
            key = list(base)
            key[s_pos] = j
            key = tuple(key)
            acc = terms.get(key, ZERO) + coeff * c
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
    return WeylElement(sig_out, terms)


def _balance_and_rewrite(
    forms: Sequence[WeylElement],
    sig: AlgebraSignature,
    order: MonomialOrder,
    t_name: str,
    dt_name: str,
    s_name: str,
) -> LeftIdeal:
    """Shift w-homogeneous elements to degree zero and rewrite in s.

    A w-degree-d monomial factors as t^d (d > 0) or d_t^{-d} (d < 0) times
    a degree-zero one, so one shifted generator per form spans the whole
    degree-zero component of the left ideal they generate.
    """
    t_pos, dt_pos = sig.index(t_name), sig.index(dt_name)
    t_gen = WeylElement.gen(sig, t_name)
    dt_gen = WeylElement.gen(sig, dt_name)
    sig_out = _s_signature(sig, t_name, s_name)
    reduced: List[WeylElement] = []
    for form in forms:
        if form.is_zero():
            continue
        degrees = {order.wdeg(e) for e in form.terms}
        if len(degrees) != 1:
            raise ValueError("element is not weight-homogeneous")
        d = degrees.pop()
        shifted = form
        for _ in range(d):
            shifted = t_gen * shifted
        for _ in range(-d):
            shifted = dt_gen * shifted
        reduced.append(_rewrite_balanced(shifted, sig_out, t_pos, dt_pos).content_primitive())
    return LeftIdeal(sig_out, reduced)


def theta_reduce(ideal: LeftIdeal) -> LeftIdeal:
    """Degree-zero part of in_w(ideal) for w = (t: -1, d_t: +1), t and d_t
    being the graph's T_VAR and DT_VAR.

    Returns a left ideal in the algebra with (t, d_t) replaced by the
    central variable s = -t*d_t - 1.
    """
    sig = ideal.sig
    order = MonomialOrder.weight(sig, {T_VAR: -1, DT_VAR: 1})
    basis = ideal.groebner(order)
    forms = [initial_form(g, order) for g in basis]
    return _balance_and_rewrite(forms, sig, order, T_VAR, DT_VAR, S_VAR)


def central_intersection(ideal: LeftIdeal) -> List[MultiPoly]:
    """Generators of ideal ∩ Q[central variables] via pair elimination."""
    drop = [name for pair in ideal.sig.pair_names for name in pair]
    sub = eliminate(ideal, drop) if drop else ideal
    polys = [g.coord_part_poly() for g in sub.generators if not g.is_zero()]
    return [p for p in polys if not p.is_zero()]


def b_polynomial(ideal: LeftIdeal) -> BFunction:
    """Monic generator b(s) of ideal ∩ Q[s], s the one central variable
    (Euclid over the eliminated generators); raises when the ideal meets
    Q[s] in zero (section not specializable within the configured bounds)."""
    polys = central_intersection(ideal)
    if not polys:
        raise NotSpecializableError(
            "no nonzero polynomial in s found; section not specializable "
            "within the configured bounds"
        )
    acc = polys[0]
    for p in polys[1:]:
        a, b = acc, p
        while not b.is_zero():
            _, r = a.divmod_single(b)
            a, b = b, r
        acc = a
        if acc.is_constant():
            break
    return BFunction.from_poly(acc)

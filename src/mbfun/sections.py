"""Formal sections of the modules the engines and the oracle act on.

A section is (ctx, numerator, pows): a numerator h over the context's
denominator factors, h prod D_i^-pows[i].  The context defines the
module, the exponents its factors carry, and when a section is zero:

    MeroContext   h F^-a G^-b f^s in O[1/(FG)][s] f^s, f = F/G
                  factors (F, G), exponents (s-a, -s-b)
    DeltaContext  h G^-b in O[1/((tG-F)G)] modulo O[t][1/G], h = h(x, u)
                  with u = (tG-F)^-1 and no u^0 term; factor G, exponent -b

The first is the oracle's working module, in which f^(s+k)/G^m is
F^k f^s/G^(m+k); the engine's generator sigma_m = G^(1-m)/(tG-F) = G^(1-m) u
lives in the second, whose sections are polar parts sum_j h_j(x) G^-b
(tG-F)^-j.  Each context lists its factors, their partials, the factors R
each derivation raises (for x_i, F and G where they depend on x_i, and G
in the delta module; none for t), and the chain term c_v = d_v(u) prod_R
D_i of u (the Laurent module has no u):

    d_v (h prod D_i^l_i) = [h_v prod_R D_i + h sum_{i in R} l_i d_v(D_i)
                            prod_{j in R, j != i} D_j + h_u c_v]
                           prod D_i^l_i / prod_R D_i

with c_x = u^2 (F_x G - F G_x) - u G_x and c_t = -G u^2.  Coordinates act
through `times`: a shift of the numerator, except that t acts on a polar
part as t h G^-b = (h/u + F h) G^(-b-1), whose u^0 term is dropped.
Derivations commute exactly on these representations, so one operator
loop and one column builder serve both modules.

In both modules a section is zero iff its numerator is, so a combination
of sections vanishes iff the same combination of their images does: their
numerators over one common denominator.  On top of that:

    least_monic  least d with powers[d] + sum_{i<d} c_i powers[i] in the
                 span of the columns, one exact rational equation per
                 monomial of the images; a b-function is read off such a
                 relation (b(s) v0 in the oracle, b(-d_t t) sigma_m in the
                 engine), and at d = 0 it decides whether one section is
                 in the span (a fixed b(s) v0 in the oracle).  powers is
                 an iterable, pulled one power per degree tried, so a
                 caller that builds them lazily builds none past the
                 least d.  At a point (r, nu) it decides the same modulo
                 (s - r)^(nu+1) in the Laurent module, which the D-action
                 preserves since s is central: the images are taken at
                 s = r + e, truncated above e^nu (the oracle's root tests)

Imaging is the costly step, and each derivative and each image is built
once.  `operator_columns` gives the column x^alpha c^j d^beta base as
(element, shift): the element is d^beta base, kept in the context's tower
of base for the context's life, so the degrees of one search and the
searches on one context share it (in the delta module t^k d^beta base,
since t does not act by a shift).  Over a common denominator the column's
image is the element's image shifted, so `least_monic` clears each element,
and each power column, once per common denominator for all the degrees it
tries.  Which columns there are is decided before any is built, by the
operator shifts delta = alpha - beta (over the coordinates that carry a
derivation) that the caller passes.  When the factors are w-homogeneous,
x^alpha c^j d^beta adds w.delta to a section's weight, which does not
depend on the denominator; sections of different weights have images with
no monomial in common, so callers pass only the shifts of the weight they
need: one lookup in `shift_table`, which lists the shifts by their weights
under the pair's weight lattice (kept by the context, with its factors'
weights) once per (number of derivations, deg, lattice).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from operator import add, mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .bfunction import S_VAR
from .multipoly import MultiPoly, unify
from .rationals import ONE, Q, ZERO
from .weyl import AlgebraSignature, Exponent, WeylElement

T_VAR = "t"
DT_VAR = "dt"
U_VAR = "u_"


def dname(x: str) -> str:
    return "d" + x


class _Context:
    """Denominator factors, the factors each derivation raises and their
    partials, and the chain terms of u; subclasses set `ring` first and
    give `exponents`."""

    lattice = None   # weight lattice of (F, G), once computed (oracle.context_lattice)

    def _set_factors(self, factors, raises, chain=None) -> None:
        self.factors = factors
        self.partials = {v: {i: factors[i].derivative(v) for i in r} for v, r in raises.items()}
        self.raises = raises
        self.chain = chain or {}
        self._powers = tuple({0: MultiPoly.const(self.ring, 1)} for _ in factors)
        self._towers: dict = {}
        self.factor_weights: dict = {}   # w -> poly_weight of each factor, kept by `weight`

    def tower(self, base: "_Section") -> dict:
        """The elements built on base so far, kept for the context's life:
        each derivative d^beta base, and each t^k d^beta base in the delta
        module, keyed by (beta, head) as in `operator_columns`."""
        return self._towers.setdefault(base, {})

    def power(self, i: int, k: int) -> MultiPoly:
        """factors[i] ** k, cached; k >= 0."""
        if k < 0:
            raise ValueError(f"negative power {k} of a denominator factor")
        cache = self._powers[i]
        if k not in cache:
            cache[k] = self.power(i, k - 1) * self.factors[i]
        return cache[k]


def images(sections: Sequence["_Section"]) -> List[MultiPoly]:
    """Numerators over the common denominator prod factors[i]^pows[i],
    each pows[i] the largest among the sections."""
    pows = _common_pows(sections)
    return [sec.cleared_numerator(pows) for sec in sections]


def _common_pows(sections: Sequence["_Section"]) -> Tuple[int, ...]:
    return tuple(max(p) for p in zip(*(sec.pows for sec in sections)))


@dataclass(frozen=True)
class _Section:
    """numerator * prod ctx.factors[i]^(ctx.exponents(pows)[i])."""

    ctx: _Context
    numerator: MultiPoly          # over ctx.ring
    pows: Tuple[int, ...]         # denominator exponents of ctx.factors

    def cleared_numerator(self, pows: Tuple[int, ...]) -> MultiPoly:
        """Numerator after raising to the common denominator given by pows."""
        num = self.numerator
        for i, (target, own) in enumerate(zip(pows, self.pows)):
            if target < own:
                raise ValueError("target denominator smaller than current one")
            if target > own:
                num = num * self.ctx.power(i, target - own)
        return num

    def scaled(self, poly: MultiPoly):
        """Multiply by a polynomial over ctx.ring."""
        return type(self)(self.ctx, self.numerator * poly, self.pows)

    def times(self, exps: Exponent, coeff):
        """coeff x^exps times the section, exps over the coordinates of
        ctx.sig: a shift of the numerator."""
        num = self.numerator.shifted(exps) if any(exps) else self.numerator
        return type(self)(self.ctx, num if coeff == 1 else num * coeff, self.pows)

    def split(self, exps: Exponent) -> Tuple[Exponent, Exponent]:
        """(head, shift) with x^exps = x^shift x^head on sections, where
        x^head acts through `times` and x^shift shifts the numerator, both
        over the coordinates of ctx.sig; here the head is 1."""
        return (0,) * len(exps), exps

    def __add__(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("sections from different contexts")
        pows = tuple(map(max, self.pows, other.pows))
        num = self.cleared_numerator(pows) + other.cleared_numerator(pows)
        return type(self)(self.ctx, num, pows)

    def derivative(self, var: str):
        """d/d(var) of the section, by the quotient rule above."""
        ctx, h = self.ctx, self.numerator
        raised = ctx.raises[var]
        exponents = ctx.exponents(self.pows)
        num = h.derivative(var) if var in ctx.ring else MultiPoly.zero(ctx.ring)
        for i in raised:
            num = num * ctx.factors[i]
        for i in raised:
            partial = ctx.partials[var][i]
            if partial.is_zero():
                continue
            term = h * exponents[i] * partial
            for j in raised:
                if j != i:
                    term = term * ctx.factors[j]
            num = num + term
        if var in ctx.chain:
            num = num + h.derivative(U_VAR) * ctx.chain[var]
        pows = tuple(p + (i in raised) for i, p in enumerate(self.pows))
        return type(self)(ctx, num, pows)

    def weight(self, w: Tuple):
        """w-weight of the section, whatever denominator it is written
        over: that of the numerator less pows[i] times that of factors[i].
        None when one of them is not w-homogeneous.  The image over a
        common denominator pows' has this weight plus sum pows'[i] times
        the weight of factors[i]."""
        ctx = self.ctx
        if w not in ctx.factor_weights:
            ctx.factor_weights[w] = tuple(poly_weight(factor, w) for factor in ctx.factors)
        weights = (poly_weight(self.numerator, w),) + ctx.factor_weights[w]
        return None if None in weights else weights[0] - sum(map(mul, self.pows, weights[1:]))

    def is_zero(self) -> bool:
        """Zero in the context's module."""
        return self.numerator.is_zero()

    def section_eq(self, other) -> bool:
        mine, theirs = images([self, other])
        return mine == theirs


# One class per module only because perfbench/tracing.py wraps each
# class's own cleared_numerator by name; both bind the shared one.


class LaurentSection(_Section):
    """A section of the Laurent module of a MeroContext."""

    cleared_numerator = _Section.cleared_numerator


class DeltaSection(_Section):
    """A section of the delta module of a DeltaContext."""

    cleared_numerator = _Section.cleared_numerator

    def times(self, exps: Exponent, coeff):
        """coeff x^alpha t^k times the section, exps = alpha + (k,): each t
        takes h G^-b to (h/u + F h) G^(-b-1), less its u^0 term."""
        num, b = self.numerator, self.pows[0]
        for _ in range(exps[-1]):
            over_u = {e[:-1] + (e[-1] - 1,): c for e, c in num.terms.items() if e[-1] > 1}
            num, b = num._wrap(over_u) + self.ctx.F_u * num, b + 1
        return _Section.times(DeltaSection(self.ctx, num, (b,)), exps[:-1] + (0,), coeff)

    def split(self, exps: Exponent) -> Tuple[Exponent, Exponent]:
        """t^k is the head and x^alpha the shift of exps = alpha + (k,)."""
        return (0,) * (len(exps) - 1) + exps[-1:], exps[:-1] + (0,)


class MeroContext(_Context):
    """Fixed pair (F, G), over the union of their variable lists; factors
    (F, G) over the ring (x, s), each raised by the derivations in which it
    is not constant.  lattice, when given, is weight_lattice(F, G).  The
    signature comes first: it refuses a variable named s, or named like a
    derivation, before any work."""

    def __init__(self, F: MultiPoly, G: MultiPoly, lattice=None):
        F, G = unify(F, G)
        self.xvars: Tuple[str, ...] = F.variables
        self.sig = AlgebraSignature.make(
            pairs=[(x, dname(x)) for x in self.xvars], central=[S_VAR]
        )
        self.F = F
        self.G = G
        self.lattice = lattice
        self.targets: dict = {}   # (m, N) -> oracle.context_targets, once computed
        self.ring: Tuple[str, ...] = self.xvars + (S_VAR,)
        self.s = MultiPoly.var(self.ring, S_VAR)
        factors = (F.extend_to(self.ring), G.extend_to(self.ring))
        raises = {
            x: tuple(i for i, D in enumerate(factors) if not D.derivative(x).is_zero())
            for x in self.xvars
        }
        self._set_factors(factors, raises)

    def exponents(self, pows: Tuple[int, int]) -> Tuple[MultiPoly, MultiPoly]:
        # F^-a G^-b f^s = F^(s-a) G^(-s-b)
        a, b = pows
        return self.s - Q(a), -self.s - Q(b)


def base_section(ctx: MeroContext, m: int, shift: int = 0) -> LaurentSection:
    """The section f^{s+shift} / G^m = F^shift f^s / G^(m+shift)."""
    return LaurentSection(ctx, ctx.power(0, shift), (0, m + shift))


class DeltaContext(_Context):
    """Sections of O[1/((tG-F)G)] modulo O[t][1/G], as polar parts
    h(x, u) G^-b with u = (tG-F)^-1; one factor G over the ring (x, u)."""

    def __init__(self, F: MultiPoly, G: MultiPoly, m: int):
        if U_VAR in F.variables + G.variables:
            raise ValueError(f"variable name {U_VAR!r} is reserved")
        self.xvars = F.variables
        self.F, self.G, self.m = F, G, m
        self.ring: Tuple[str, ...] = self.xvars + (U_VAR,)
        self.F_u, G_u = F.extend_to(self.ring), G.extend_to(self.ring)
        self.u = u = MultiPoly.var(self.ring, U_VAR)
        raises, chain = {T_VAR: ()}, {T_VAR: -G_u * u * u}
        for x in self.xvars:
            dF, dG = self.F_u.derivative(x), G_u.derivative(x)
            raises[x], chain[x] = (0,), u * u * (dF * G_u - self.F_u * dG) - u * dG
        self._set_factors((G_u,), raises, chain)
        self.sig = AlgebraSignature.make(
            pairs=[(x, dname(x)) for x in self.xvars] + [(T_VAR, DT_VAR)]
        )

    def exponents(self, pows: Tuple[int]) -> Tuple[object]:
        return (Q(-pows[0]),)

    def generator(self) -> DeltaSection:
        """sigma_m = G^{1-m} / (tG - F) = G^{1-m} u."""
        num = self.u if self.m >= 1 else self.factors[0] * self.u
        return DeltaSection(self, num, (max(self.m - 1, 0),))


# -- operators acting on sections -----------------------------------------


def _apply(P: WeylElement, v):
    """P v for a normally ordered P: derivations first, then coordinates.

    P's terms are grouped by (beta, head), the head and the shift of a
    term's coordinates as `_Section.split` gives them.  Each group is one
    element, the head acting on d^beta v, times the polynomial sum of
    coeff x^shift over the group's terms.  The elements are built as
    `operator_columns` builds its own, each once, but within the call and
    from v itself: never from the context's towers, so an operator
    re-applied to check a witness does not rest on what the search built.
    The parts are added once, over the elements' common denominator; an
    element already over it is not cleared.  The zero operator gives v
    scaled by zero.
    """
    ctx = v.ctx
    sig = ctx.sig
    if P.sig != sig:
        raise ValueError("operator signature does not match the section context")
    ncoords = len(sig.coords)
    groups: dict = {}
    for exps, coeff in P.terms.items():
        head, shift = v.split(exps[:ncoords])
        groups.setdefault((exps[ncoords:], head), {})[shift] = coeff
    if not groups:
        return v.scaled(MultiPoly.zero(ctx.ring))
    paired = [sig.coords[ci] for ci, _ in sig.pairs]
    elements = {((0,) * len(paired), (0,) * ncoords): v}
    elems = [_element(elements, paired, beta, head) for beta, head in groups]
    pows = _common_pows(elems)
    total = None
    for elem, coeffs in zip(elems, groups.values()):
        num = elem.numerator if elem.pows == pows else elem.cleared_numerator(pows)
        part = num * num._wrap(coeffs)
        total = part if total is None else total + part
    return type(v)(ctx, total, pows)


def apply_operator(P: WeylElement, v: LaurentSection) -> LaurentSection:
    """Exact action of P in D_n[s] (signature ctx.sig) on the section v."""
    return _apply(P, v)


def apply_delta_operator(P: WeylElement, v: DeltaSection) -> DeltaSection:
    """Action of P in D_{n+1} (variables x, t) on the delta-module section."""
    return _apply(P, v)


@lru_cache(maxsize=None)
def _shift_ball(n: int, deg: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """(sum delta, delta) for each delta in Z^n with |delta|_1 <= deg,
    sorted; each coordinate in turn spends what the earlier ones left."""
    ball = [((), deg)]
    for _ in range(n):
        ball = [(d + (e,), left - abs(e)) for d, left in ball for e in range(-left, left + 1)]
    return tuple(sorted((sum(d), d) for d, _ in ball))


@lru_cache(maxsize=256)
def shift_table(n: int, deg: int, lattice: Tuple[Tuple[int, ...], ...]) -> dict:
    """The entries (sum delta, delta) of `_shift_ball(n, deg)` by their
    weights (w.delta for w in lattice), each list in the ball's order."""
    table: dict = {}
    for entry in _shift_ball(n, deg):
        table.setdefault(tuple(sum(map(mul, w, entry[1])) for w in lattice), []).append(entry)
    return {weight: tuple(entries) for weight, entries in table.items()}


def operator_columns(
    base,
    deg: int,
    shifts: Optional[Sequence[Tuple[int, Tuple[int, ...]]]] = None,
    jdeg: Optional[int] = None,
) -> Iterator[Tuple[Exponent, "_Section", Exponent]]:
    """The columns (x^alpha c^j d^beta) base, as (key, element, shift): key
    is the operator's exponent tuple in signature order, with |alpha| +
    |beta| <= deg over the coordinates that carry a derivation, exponent
    <= jdeg (deg when None) on each central coordinate c, and (sum delta,
    delta) among shifts for delta = alpha - beta: entries of
    `_shift_ball(n, deg)` in its order, as `shift_table` gives them; None
    is the whole ball.  The column is element.times(shift, ONE), and its
    image over any common denominator is the element's, shifted.  The
    elements are those of base's tower in its context (see
    `_Context.tower`): each derivative d^beta base is built the first time
    a column needs it, one derivation above an earlier one, and the head
    of x^alpha c^j (`_Section.split`, t^k in the delta module) acts on it
    once per (beta, head).  The order is by beta, then |alpha|, alpha, j.  A column with shift delta has
    |alpha| = |beta| + sum delta, so it needs 2|beta| <= deg - sum delta:
    each coordinate of beta stops at half of deg less the least sum among
    shifts, and an empty shift list yields nothing at once.
    """
    sig = base.ctx.sig
    paired = [sig.coords[ci] for ci, _ in sig.pairs]
    n = len(paired)
    shifts = _shift_ball(n, deg) if shifts is None else shifts
    if not shifts:
        return
    jdeg = deg if jdeg is None else jdeg
    central = list(product(range(jdeg + 1), repeat=len(sig.coords) - n))
    no_head = (0,) * len(sig.coords)
    tower = base.ctx.tower(base)
    tower.setdefault(((0,) * n, no_head), base)
    most = (deg - shifts[0][0]) // 2
    for beta in product(range(most + 1), repeat=n):
        room = deg - 2 * sum(beta)
        for total, delta in shifts:
            if total > room:
                break
            alpha = tuple(map(add, beta, delta))
            if min(alpha) < 0:
                continue
            for j in central:
                head, shift = base.split(alpha + j)
                yield alpha + j + beta, _element(tower, paired, beta, head), shift


def _element(elements: dict, paired: Sequence[str], beta: Exponent, head: Exponent):
    """head d^beta base, kept in elements, a dict keyed (beta, head) that
    holds base itself under beta = 0 and no head.  Built the first time it
    is asked for: d^beta one derivation above an earlier derivative (the
    first coordinate's derivation is taken last), and a head acting on
    d^beta base through `times`."""
    elem = elements.get((beta, head))
    if elem is None:
        no_head = (0,) * len(head)
        if head != no_head:
            elem = _element(elements, paired, beta, no_head).times(head, ONE)
        else:
            i = 0
            while not beta[i]:
                i += 1
            prev = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            elem = _element(elements, paired, prev, no_head).derivative(paired[i])
        elements[beta, head] = elem
    return elem


# -- sections to a linear system -------------------------------------------


def poly_weight(poly: MultiPoly, w: Sequence):
    """Weight of a w-homogeneous polynomial in the variables w covers (the
    leading ones); None when its terms have different weights."""
    weights = {sum((wi * e for wi, e in zip(w, exps)), ZERO) for exps in poly.terms}
    return weights.pop() if len(weights) == 1 else None


def _point_weights(root, nu: int, scale: int) -> Tuple[Tuple[int, ...], ...]:
    """w with q^scale (root + e)^i = sum_{l <= nu} w[i][l] e^l modulo
    e^(nu+1), for i <= scale and root = p/q: integers."""
    p, q = root.numerator, root.denominator
    return tuple(
        tuple(comb(i, l) * p ** (i - l) * q ** (scale - i + l) for l in range(min(i, nu) + 1))
        for i in range(scale + 1)
    )


def _at_point(poly: MultiPoly, weights) -> MultiPoly:
    """q^scale poly with its last variable s set to root + e and its terms
    above e^nu dropped, for weights = _point_weights(root, nu, scale); e
    takes the place of s.  Integral when poly is and its degree in s is at
    most scale."""
    terms: dict = {}
    get = terms.get
    for exps, c in poly.terms.items():
        head = exps[:-1]
        for l, w in enumerate(weights[exps[-1]]):
            key = head + (l,)
            terms[key] = get(key, ZERO) + c * w
    return poly._wrap({e: c for e, c in terms.items() if c})


class _Images:
    """Images of fixed columns (element, shift), and of the powers added
    after them, each computed at most once per common pows: an element is
    cleared once and each column on it is its image shifted (a shift of
    None is none).  Index i < len(columns) is columns[i], and len(columns)
    + d is powers[d].

    Only the images at the latest pows are kept: the callers' common
    denominators never shrink, so older ones are not asked for again.

    At a point (root, nu), over a MeroContext, each element's numerator is
    taken `_at_point` and then cleared, and the shift of a column
    multiplies by e^j in place of s^j, its terms above e^nu dropped: the
    images modulo (s - root)^(nu+1).  All of them are scaled by one power
    q^scale of root's denominator, scale the largest degree in s among the
    elements, which keeps integer coefficients integers; a solution
    solves the unscaled system too.
    """

    def __init__(self, columns: Sequence[Tuple["_Section", Optional[Exponent]]], point=None):
        self.columns = columns
        self.point = point
        self.powers: List["_Section"] = []
        self._pows: Optional[Tuple[int, ...]] = None
        self._images: dict = {}
        self._cleared: dict = {}

    def image(self, i: int, pows: Tuple[int, ...]) -> MultiPoly:
        point = self.point
        if pows != self._pows:
            self._pows, self._images, self._cleared = pows, {}, {}
            if point is not None:
                elems = [elem for elem, _ in self.columns] + self.powers
                scale = max(elem.numerator.degree_in(S_VAR) for elem in elems)
                self._weights = _point_weights(*point, scale)
        if i not in self._images:
            ncols = len(self.columns)
            elem, shift = self.columns[i] if i < ncols else (self.powers[i - ncols], None)
            key = id(elem)
            cleared = self._cleared.get(key)
            if cleared is None:
                if point is not None:
                    # clearing multiplies by powers of F and G, free of s
                    num = _at_point(elem.numerator, self._weights)
                    elem = type(elem)(elem.ctx, num, elem.pows)
                cleared = self._cleared[key] = elem.cleared_numerator(pows)
            image = cleared if shift is None else cleared.shifted(shift)
            if point is not None and shift is not None and shift[-1]:
                image = image._wrap({e: c for e, c in image.terms.items() if e[-1] <= point[1]})
            self._images[i] = image
        return self._images[i]

    def solve(self, rhs: int, cols: Sequence[int], pows: Tuple[int, ...]):
        """Exact c with sum_k c_k image[cols[k]] = image[rhs] over the
        common denominator pows, or None; free coefficients, and those of
        columns with a zero image, are zero."""
        images = [self.image(i, pows) for i in cols]
        kept = [k for k, image in enumerate(images) if not image.is_zero()]
        rows, vec = linalg.identity_system(
            [images[k].terms for k in kept], self.image(rhs, pows).terms
        )
        solution = linalg.solve(rows, vec, len(kept))
        if solution is None:
            return None
        values = dict(zip(kept, solution))
        return [values.get(k, ZERO) for k in range(len(cols))]


def least_monic(
    powers: Iterable, columns: Sequence, min_deg: int = 0, point=None
) -> Optional[Tuple[List[object], List[object]]]:
    """Least d >= min_deg with powers[d] + sum_{i<d} c_i powers[i] =
    sum_j q_j columns[j]; returns (c_0, ..., c_{d-1}, 1) and q, or None when
    no d the powers reach admits one.  The powers are an iterable of
    sections, pulled one at a time: powers[d] is taken only when degree d
    is tried (all of powers[:min_deg + 1] at the first), so a caller that
    builds them lazily builds none above the least d.  The columns are
    (element, shift) pairs as `operator_columns` gives them.

    One system per d, powers[d] against the lower powers and the columns,
    one exact rational equation per monomial of the images; free
    coefficients, and those of columns with a zero image, are zero.  The
    systems share one set of images, so an element is cleared once per
    common denominator however many degrees are tried, and each column on
    it is a shift of that image.  At d = 0 this solves powers[0] = sum_j
    q_j columns[j].  At a point (root, nu) the images are taken modulo (s -
    root)^(nu+1), as `_Images` says.
    """
    images = _Images(columns, point)
    ncols = len(columns)
    column_ids = list(range(ncols))
    pows = _common_pows([elem for elem, _ in columns]) if columns else None
    for d, power in enumerate(powers):
        images.powers.append(power)
        pows = power.pows if pows is None else tuple(map(max, pows, power.pows))
        if d < min_deg:
            continue
        solution = images.solve(ncols + d, list(range(ncols, ncols + d)) + column_ids, pows)
        if solution is not None:
            return [-c for c in solution[:d]] + [ONE], solution[d:]
    return None

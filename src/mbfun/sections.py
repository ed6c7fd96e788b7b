"""Formal sections of the modules the engines and the oracle act on.

A section is (ctx, numerator, pows): a numerator h over the context's two
denominator factors, h D_1^-a D_2^-b with pows = (a, b).  The context
defines the module, the exponents its factors carry, and when a section
is zero:

    MeroContext   h F^-a G^-b f^s in O[1/(FG)][s] f^s, f = F/G
                  factors (F, G), exponents (s-a, -s-b)
    DeltaContext  h (tG-F)^-a G^-b in O[1/((tG-F)G)] modulo O[1/G]
                  factors (tG-F, G), exponents (-a, -b)

The first is the oracle's working module, in which f^(s+k)/G^m is
F^k f^s/G^(m+k); the engine's generator sigma_m = G^(1-m)/(tG-F) lives
in the second.  Each context lists its factors, their partials, and the
factors R each derivation raises (both for every x_i, only tG-F for t),
and one quotient rule serves all:

    d_v (h prod D_i^l_i) = [h_v prod_R D_i + h sum_{i in R} l_i d_v(D_i)
                            prod_{j in R, j != i} D_j] prod D_i^l_i / prod_R D_i

Derivations commute exactly on these representations, so one operator
loop and one column builder serve both modules.

Each context turns sections into vectors with `images`: numerators over
one common denominator, reduced modulo (tG-F)^a in the delta module, in
which a combination of the sections vanishes iff the same combination of
images does.  A section is zero, or equal to another, when its image is.
On top of that:

    solve        c with sum_i c_i columns[i] = rhs, one exact rational
                 equation per monomial of the images
    least_monic  least d with powers[d] + sum_{i<d} c_i powers[i] in the
                 span of the columns; a b-function is read off such a
                 relation (b(s) v0 in the oracle, p(t d_t) sigma_m in the
                 engine)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .multipoly import MultiPoly
from .rationals import ONE, Q, ZERO
from .weyl import AlgebraSignature, Exponent, WeylElement

S_VAR = "s"
T_VAR = "t"
DT_VAR = "dt"


def dname(x: str) -> str:
    return "d" + x


class _Context:
    """Denominator factors, their partials, and the factors each
    derivation raises; subclasses set `ring` first and give `exponents`."""

    def _set_factors(self, factors, raises) -> None:
        self.factors = factors
        self.partials = {v: tuple(D.derivative(v) for D in factors) for v in raises}
        self.raises = raises
        self._powers = tuple({0: MultiPoly.const(self.ring, 1)} for _ in factors)

    def power(self, i: int, k: int) -> MultiPoly:
        """factors[i] ** k, cached; k >= 0."""
        if k < 0:
            raise ValueError(f"negative power {k} of a denominator factor")
        cache = self._powers[i]
        if k not in cache:
            cache[k] = self.power(i, k - 1) * self.factors[i]
        return cache[k]

    def images(self, sections: Sequence["_Section"]) -> List[MultiPoly]:
        """Numerators over the common denominator prod factors[i]^pows[i],
        each pows[i] the largest among the sections."""
        pows = tuple(max(p) for p in zip(*(sec.pows for sec in sections)))
        return [sec.cleared_numerator(pows) for sec in sections]


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
        return replace(self, numerator=self.numerator * poly)

    def __add__(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("sections from different contexts")
        pows = tuple(map(max, self.pows, other.pows))
        num = self.cleared_numerator(pows) + other.cleared_numerator(pows)
        return replace(self, numerator=num, pows=pows)

    def derivative(self, var: str):
        """d/d(var) of the section, by the quotient rule above."""
        ctx, h = self.ctx, self.numerator
        raised = ctx.raises[var]
        exponents = ctx.exponents(self.pows)
        num = h.derivative(var)
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
        pows = tuple(p + (i in raised) for i, p in enumerate(self.pows))
        return replace(self, numerator=num, pows=pows)

    def is_zero(self) -> bool:
        """Zero in the context's module."""
        return self.ctx.images([self])[0].is_zero()

    def section_eq(self, other) -> bool:
        mine, theirs = self.ctx.images([self, other])
        return mine == theirs


# One class per module only because perfbench/tracing.py wraps each
# class's own cleared_numerator by name; both bind the shared one.


class LaurentSection(_Section):
    """A section of the Laurent module of a MeroContext."""

    cleared_numerator = _Section.cleared_numerator


class DeltaSection(_Section):
    """A section of the delta module of a DeltaContext."""

    cleared_numerator = _Section.cleared_numerator


class MeroContext(_Context):
    """Fixed pair (F, G); factors (F, G) over the ring (x, s)."""

    def __init__(self, F: MultiPoly, G: MultiPoly):
        if F.variables != G.variables:
            raise ValueError("F and G must share a variable list")
        self.xvars: Tuple[str, ...] = F.variables
        if S_VAR in self.xvars or T_VAR in self.xvars:
            raise ValueError(f"variable names {S_VAR!r}/{T_VAR!r} are reserved")
        self.F = F
        self.G = G
        self.ring: Tuple[str, ...] = self.xvars + (S_VAR,)
        self.s = MultiPoly.var(self.ring, S_VAR)
        factors = (F.extend_to(self.ring), G.extend_to(self.ring))
        self._set_factors(factors, {x: (0, 1) for x in self.xvars})
        self.sig = AlgebraSignature.make(
            pairs=[(x, dname(x)) for x in self.xvars], central=[S_VAR]
        )

    def exponents(self, pows: Tuple[int, int]) -> Tuple[MultiPoly, MultiPoly]:
        # F^-a G^-b f^s = F^(s-a) G^(-s-b)
        a, b = pows
        return self.s - Q(a), -self.s - Q(b)


def base_section(ctx: MeroContext, m: int, shift: int = 0) -> LaurentSection:
    """The section f^{s+shift} / G^m = F^shift f^s / G^(m+shift)."""
    return LaurentSection(ctx, ctx.power(0, shift), (0, m + shift))


class DeltaContext(_Context):
    """Sections of O[1/((tG-F)G)] modulo O[1/G]; factors (tG-F, G) over (x, t)."""

    def __init__(self, F: MultiPoly, G: MultiPoly, m: int):
        self.xvars = F.variables
        self.m = m
        self.ring: Tuple[str, ...] = self.xvars + (T_VAR,)
        self.F = F.extend_to(self.ring)
        self.G = G.extend_to(self.ring)
        t = MultiPoly.var(self.ring, T_VAR)
        self.P = t * self.G - self.F          # tG - F, the graph equation
        raises = {x: (0, 1) for x in self.xvars}
        raises[T_VAR] = (0,)
        self._set_factors((self.P, self.G), raises)
        self.sig = AlgebraSignature.make(
            pairs=[(x, dname(x)) for x in self.xvars] + [(T_VAR, DT_VAR)]
        )

    def exponents(self, pows: Tuple[int, int]) -> Tuple[object, object]:
        return tuple(Q(-p) for p in pows)

    def images(self, sections: Sequence[DeltaSection]) -> List[MultiPoly]:
        """Numerators over the common denominator (tG-F)^a G^b, reduced modulo
        (tG-F)^a.  A combination of the sections vanishes modulo O[t][1/G] iff
        the same combination of remainders is zero: (tG-F)^a must divide its
        numerator (G and tG-F are coprime), and that reduction is linear."""
        modulus = self.power(0, max(sec.pows[0] for sec in sections))
        return [num.divmod_single(modulus)[1] for num in super().images(sections)]

    def generator(self) -> DeltaSection:
        """sigma_m = G^{1-m} / (tG - F)."""
        if self.m >= 1:
            return DeltaSection(self, MultiPoly.const(self.ring, 1), (1, self.m - 1))
        return DeltaSection(self, self.G, (1, 0))


# -- operators acting on sections -----------------------------------------


def _apply(P: WeylElement, v):
    """P v for a normally ordered P: derivations first, then coordinates.

    The zero operator gives v scaled by zero.
    """
    ctx = v.ctx
    sig = ctx.sig
    if P.sig != sig:
        raise ValueError("operator signature does not match the section context")
    ncoords = len(sig.coords)
    total = None
    for exps, coeff in sorted(P.terms.items()):
        part = v
        for ci, di in sig.pairs:
            for _ in range(exps[di]):
                part = part.derivative(sig.coords[ci])
        part = part.scaled(MultiPoly(ctx.ring, {exps[:ncoords]: coeff}))
        total = part if total is None else total + part
    return v.scaled(MultiPoly.zero(ctx.ring)) if total is None else total


def apply_operator(P: WeylElement, v: LaurentSection) -> LaurentSection:
    """Exact action of P in D_n[s] (signature ctx.sig) on the section v."""
    return _apply(P, v)


def apply_delta_operator(P: WeylElement, v: DeltaSection) -> DeltaSection:
    """Action of P in D_{n+1} (variables x, t) on the delta-module section."""
    return _apply(P, v)


def _compositions(k: int, total: int) -> Iterator[Tuple[int, ...]]:
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(k - 1, total - head):
            yield (head,) + rest


def operator_columns(base, deg: int, sdeg: int) -> Iterator[Tuple[Exponent, object]]:
    """Sections (x^alpha c^j d^beta) base, keyed by the operator's exponent
    tuple in signature order: |alpha| + |beta| <= deg over the coordinates
    that carry a derivation, exponent <= sdeg on each central coordinate c.

    The derivatives d^beta base come from one tower, each one derivation
    above an earlier one; the order is by beta, then |alpha|, alpha, j.
    """
    ctx = base.ctx
    sig = ctx.sig
    paired = [sig.coords[ci] for ci, _ in sig.pairs]
    n = len(paired)
    tower = {(0,) * n: base}
    for d in range(1, deg + 1):
        for beta in _compositions(n, d):
            i = next(idx for idx, e in enumerate(beta) if e)
            prev = tuple(e - (1 if idx == i else 0) for idx, e in enumerate(beta))
            tower[beta] = tower[prev].derivative(paired[i])
    central = list(product(range(sdeg + 1), repeat=len(sig.coords) - n))
    for beta, dbase in sorted(tower.items()):
        for da in range(deg - sum(beta) + 1):
            for alpha in _compositions(n, da):
                for j in central:
                    mono = MultiPoly(ctx.ring, {alpha + j: ONE})
                    yield alpha + j + beta, dbase.scaled(mono)


# -- sections to a linear system -------------------------------------------


def _weight(poly: MultiPoly, w: Sequence):
    """Weight of a w-homogeneous polynomial in the variables w covers (the
    leading ones); None when its terms have different weights."""
    weights = {sum((wi * e for wi, e in zip(w, exps)), ZERO) for exps in poly.terms}
    return weights.pop() if len(weights) == 1 else None


def solve(rhs, columns: Sequence, lattice: Sequence = ()) -> Optional[List[object]]:
    """Exact c with sum_i c_i columns[i] = rhs, or None; free and dropped
    coefficients are zero.

    Columns with a zero image are dropped, and so is each column whose
    w-weight differs from the rhs's for a weight vector w in `lattice`.
    The caller passes only w for which every column is w-homogeneous, so
    the dropped columns cannot contribute to a solution.
    """
    rhs_image, *images = rhs.ctx.images([rhs, *columns])
    kept = [i for i, image in enumerate(images) if not image.is_zero()]
    for w in lattice:
        target = _weight(rhs_image, w)
        if target is not None:
            kept = [i for i in kept if _weight(images[i], w) in (None, target)]
    rows, vec = linalg.identity_system([images[i].terms for i in kept], rhs_image.terms)
    solution = linalg.solve(rows, vec, len(kept))
    if solution is None:
        return None
    values = dict(zip(kept, solution))
    return [values.get(i, ZERO) for i in range(len(columns))]


def least_monic(
    powers: Sequence, columns: Sequence, lattice: Sequence = (), min_deg: int = 0
) -> Optional[Tuple[List[object], List[object]]]:
    """Least d >= min_deg with powers[d] + sum_{i<d} c_i powers[i] =
    sum_j q_j columns[j]; returns (c_0, ..., c_{d-1}, 1) and q, or None when
    no d < len(powers) admits one.

    One system per d, the power columns first.
    """
    for d in range(min_deg, len(powers)):
        rhs = powers[d].scaled(MultiPoly.const(powers[d].ctx.ring, -1))
        solution = solve(rhs, list(powers[:d]) + list(columns), lattice)
        if solution is not None:
            return solution[:d] + [ONE], [-q for q in solution[d:]]
    return None

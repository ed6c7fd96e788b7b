"""PBW algebras with normally ordered elements.

Supported signatures: Weyl algebras D_n (pairs [d_i, x_i] = 1), optional
central variables (s-parameters), shift pairs (s, d_t) with
d_t s = (s - 1) d_t, and the degree homogenization used for weight-vector
Groebner runs ([d, x] = h^2).  A shift pair is the pair (s, d_t) of the
Briancon-Maisonobe algebra: s = -d_t t acts as a coordinate that d_t
shifts by one.

Generators are numbered coords-then-derivations; a monomial is the exponent
vector of its normally ordered form (all coords left of all derivations).
In normal order an element is the same data as a commutative polynomial,
so `WeylElement` takes its sums, scalar multiples, constants, degree and
printing from multipoly's `SparseTerms` core; it adds its signature and
its product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mul
from typing import Dict, List, Optional, Sequence, Tuple

from .multipoly import MultiPoly, SparseTerms, _revlex_key
from .rationals import ONE, Q, ZERO, coprime_integers

Exponent = Tuple[int, ...]


class SignatureMismatch(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraSignature:
    coords: Tuple[str, ...]
    derivs: Tuple[str, ...]
    pairs: Tuple[Tuple[int, int], ...]      # (coord position, deriv position)
    homog: Optional[int] = None             # coord position of h, if homogenized
    shift_pairs: Tuple[Tuple[int, int], ...] = ()   # (s position, d_t position)

    @classmethod
    def make(
        cls,
        pairs: Sequence[Tuple[str, str]] = (),
        central: Sequence[str] = (),
        shift_pairs: Sequence[Tuple[str, str]] = (),
    ) -> "AlgebraSignature":
        """Coords: the pairs' coordinates, the central names, then the shift
        pairs' s; derivations: the pairs' derivations, then the shift
        pairs' d_t."""
        coords = tuple(x for x, _ in pairs) + tuple(central) + tuple(s for s, _ in shift_pairs)
        derivs = tuple(d for _, d in pairs) + tuple(dt for _, dt in shift_pairs)
        seen = set()
        for name in coords + derivs:
            if name in seen:
                raise ValueError(
                    f"generator name {name!r} occurs twice: a variable name "
                    "collides with a derivation or an internal name"
                )
            seen.add(name)
        for name in coords:
            if name[:1] == "d" and name[1:] in derivs:
                raise ValueError(
                    f"variable name {name!r} is 'd' followed by the derivation "
                    f"name {name[1:]!r}, so derivation names would be ambiguous"
                )
        n, m, k = len(coords), len(pairs), len(shift_pairs)
        return cls(
            coords,
            derivs,
            tuple((i, n + i) for i in range(m)),
            shift_pairs=tuple((n - k + j, n + m + j) for j in range(k)),
        )

    @property
    def names(self) -> Tuple[str, ...]:
        return self.coords + self.derivs

    @property
    def pair_names(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((self.names[ci], self.names[di]) for ci, di in self.pairs)

    @property
    def ngens(self) -> int:
        return len(self.coords) + len(self.derivs)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def homogenized(self) -> "AlgebraSignature":
        if self.shift_pairs:
            raise ValueError("a signature with shift pairs has no homogenization")
        coords = self.coords + ("h_",)
        n = len(coords)
        pairs = tuple((c, d + 1) for c, d in self.pairs)
        return AlgebraSignature(coords, self.derivs, pairs, homog=n - 1)


@lru_cache(maxsize=4096)
def _expansion(b: int, a: int) -> Tuple[Tuple[int, int], ...]:
    """The terms k >= 1 of d^b x^a = sum_k C(b,k) C(a,k) k! x^(a-k) d^(b-k),
    as (k, coefficient); the term k = 0 is x^a d^b."""
    return tuple(
        (k, math.comb(b, k) * math.comb(a, k) * math.factorial(k))
        for k in range(1, min(b, a) + 1)
    )


@lru_cache(maxsize=4096)
def _shift_expansion(b: int, a: int) -> Tuple[Tuple[int, int], ...]:
    """The terms k >= 1 of d_t^b s^a = (s-b)^a d_t^b
    = sum_k C(a,k) (-b)^k s^(a-k) d_t^b, as (k, coefficient); the term
    k = 0 is s^a d_t^b."""
    return tuple((k, math.comb(a, k) * (-b) ** k) for k in range(1, a + 1))


def _mono_product(sig: AlgebraSignature, e1: Exponent, e2: Exponent):
    """Expand the normally ordered product of two monomials.

    Returns a list of (exponent, integer coefficient) pairs.  Generators of
    different pairs commute, so each pair whose derivation in e1 meets its
    coordinate in e2 expands every term found so far.
    """
    out: List[Tuple[Exponent, int]] = [(tuple(map(add, e1, e2)), 1)]
    for ci, di in sig.pairs:
        b1, a2 = e1[di], e2[ci]
        if b1 and a2:
            expanded = []
            for exps, coeff in out:
                expanded.append((exps, coeff))
                for k, c in _expansion(b1, a2):
                    shifted = list(exps)
                    shifted[ci] -= k
                    shifted[di] -= k
                    if sig.homog is not None:
                        shifted[sig.homog] += 2 * k
                    expanded.append((tuple(shifted), coeff * c))
            out = expanded
    for si, ti in sig.shift_pairs:
        b1, a2 = e1[ti], e2[si]
        if b1 and a2:
            expanded = []
            for exps, coeff in out:
                expanded.append((exps, coeff))
                for k, c in _shift_expansion(b1, a2):
                    shifted = list(exps)
                    shifted[si] -= k
                    expanded.append((tuple(shifted), coeff * c))
            out = expanded
    return out


class WeylElement(SparseTerms):
    """A finite rational combination of normally ordered monomials."""

    __slots__ = ("sig",)

    def __init__(self, sig: AlgebraSignature, terms: Dict[Exponent, object]):
        self.sig = sig
        clean = {}
        for exps, coeff in terms.items():
            coeff = Q(coeff)
            if coeff != 0:
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, sig: AlgebraSignature, terms: Dict[Exponent, object]) -> "WeylElement":
        """Wrap terms that are already clean: tuple exponents of the right
        length, nonzero exact coefficients.  Takes ownership of the dict."""
        elem = cls.__new__(cls)
        elem.sig = sig
        elem.terms = terms
        return elem

    def _wrap(self, terms: Dict[Exponent, object]) -> "WeylElement":
        return WeylElement._trusted(self.sig, terms)

    def _require_same(self, other: "WeylElement") -> None:
        if self.sig != other.sig:
            raise SignatureMismatch("operands live in different algebras")

    def _names(self) -> Tuple[str, ...]:
        return self.sig.names

    @classmethod
    def gen(cls, sig: AlgebraSignature, name: str, power: int = 1) -> "WeylElement":
        exps = [0] * sig.ngens
        exps[sig.index(name)] = power
        return cls(sig, {tuple(exps): ONE})

    @classmethod
    def from_poly(cls, sig: AlgebraSignature, poly: MultiPoly) -> "WeylElement":
        return cls(sig, poly.extend_to(sig.names).terms)

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return self._scaled(other)
        self._require_same(other)
        terms: Dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c12 = c1 * c2
                for exps, icoeff in _mono_product(self.sig, e1, e2):
                    acc = terms.get(exps, ZERO) + c12 * icoeff
                    if acc == 0:
                        terms.pop(exps, None)
                    else:
                        terms[exps] = acc
        return WeylElement._trusted(self.sig, terms)

    def __rmul__(self, other):
        # scalars only; element order matters otherwise
        return self._scaled(other)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, tuple(sorted(self.terms.items()))))

    def content_primitive(self) -> "WeylElement":
        """Remove rational content; integer, primitive, deterministic sign."""
        if not self.terms:
            return self
        prim = self._wrap(coprime_integers(self.terms))
        return -prim if self.terms[max(self.terms, key=_revlex_key)] < 0 else prim

    def coord_part_poly(self) -> MultiPoly:
        """View as a commutative polynomial in the coords (no derivations allowed)."""
        nc = len(self.sig.coords)
        terms = {}
        for exps, coeff in self.terms.items():
            if any(exps[nc:]):
                raise ValueError("element involves derivations")
            terms[exps[:nc]] = coeff
        return MultiPoly(self.sig.coords, terms)


# -- monomial orders ----------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """degrevlex | weight vector with degrevlex tiebreak.

    On a homogenized signature the weight ties are first broken by the
    smaller exponent of h: there dx*x = x*dx + h^2, and only with x*dx
    above h^2 is the leading monomial of a product the product of the
    leading monomials."""

    kind: str = "degrevlex"
    weights: Tuple[int, ...] = ()
    homog: Optional[int] = None             # exponent position of h, if homogenized

    @classmethod
    def degrevlex(cls) -> "MonomialOrder":
        return cls("degrevlex")

    @classmethod
    def weight(cls, sig: AlgebraSignature, table: Dict[str, int]) -> "MonomialOrder":
        w = tuple(table.get(name, 0) for name in sig.names)
        order = cls("weight", w)
        order.check_admissible(sig)
        return order

    def check_admissible(self, sig: AlgebraSignature) -> None:
        if self.kind != "weight":
            return
        w = self.weights
        if len(w) != sig.ngens:
            raise ValueError("weight vector length mismatch")
        for ci, di in sig.pairs:
            if w[ci] + w[di] < 0:
                raise ValueError(
                    f"inadmissible weight: u({sig.names[ci]}) + u({sig.names[di]}) < 0"
                )
        # d_t s = s d_t - d_t: s d_t must lead, so u(s) >= 0
        for si, _ in sig.shift_pairs:
            if w[si] < 0:
                raise ValueError(f"inadmissible weight: u({sig.names[si]}) < 0")

    def has_negative_weight(self) -> bool:
        return self.kind == "weight" and any(w < 0 for w in self.weights)

    def wdeg(self, exps: Exponent) -> int:
        if self.kind != "weight":
            return 0
        return sum(map(mul, self.weights, exps))

    def key(self, exps: Exponent):
        if self.kind != "weight":
            return _revlex_key(exps)
        if self.homog is not None:
            return (self.wdeg(exps), -exps[self.homog]) + _revlex_key(exps)
        return (self.wdeg(exps),) + _revlex_key(exps)

    def extended(self, sig_h: AlgebraSignature) -> "MonomialOrder":
        """Lift to the homogenized signature (h gets weight 0)."""
        if self.kind != "weight":
            return self
        nc = len(sig_h.coords)
        w = self.weights[: nc - 1] + (0,) + self.weights[nc - 1 :]
        return MonomialOrder("weight", w, sig_h.homog)

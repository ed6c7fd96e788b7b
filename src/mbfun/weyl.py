"""PBW algebras with normally ordered elements.

Supported signatures: Weyl algebras D_n (pairs [d_i, x_i] = 1), optional
central variables (s-parameters), and the degree homogenization used for
weight-vector Groebner runs ([d, x] = h^2).

Generators are numbered coords-then-derivations; a monomial is the exponent
vector of its normally ordered form (all coords left of all derivations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .multipoly import MultiPoly, _revlex_key, format_terms
from .rationals import ONE, Q, ZERO, rational_content

Exponent = Tuple[int, ...]


class SignatureMismatch(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraSignature:
    coords: Tuple[str, ...]
    derivs: Tuple[str, ...]
    pairs: Tuple[Tuple[int, int], ...]      # (coord position, deriv position)
    homog: Optional[int] = None             # coord position of h, if homogenized

    @classmethod
    def make(
        cls,
        pairs: Sequence[Tuple[str, str]] = (),
        central: Sequence[str] = (),
    ) -> "AlgebraSignature":
        coords = tuple(x for x, _ in pairs) + tuple(central)
        derivs = tuple(d for _, d in pairs)
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
        n = len(coords)
        return cls(coords, derivs, tuple((i, n + i) for i in range(len(pairs))))

    @property
    def names(self) -> Tuple[str, ...]:
        return self.coords + self.derivs

    @property
    def ngens(self) -> int:
        return len(self.coords) + len(self.derivs)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def homogenized(self, h_name: str = "h_") -> "AlgebraSignature":
        coords = self.coords + (h_name,)
        n = len(coords)
        pairs = tuple((c, d + 1) for c, d in self.pairs)
        return AlgebraSignature(coords, self.derivs, pairs, homog=n - 1)


def _mono_product(sig: AlgebraSignature, e1: Exponent, e2: Exponent):
    """Expand the normally ordered product of two monomials.

    Yields (exponent, integer coefficient) pairs.
    """
    choices: List[Tuple[Dict[int, int], int]] = [({}, 1)]
    for ci, di in sig.pairs:
        b1, a2 = e1[di], e2[ci]
        if b1 and a2:
            expanded = []
            for delta, coeff in choices:
                for k in range(min(b1, a2) + 1):
                    c = math.comb(b1, k) * math.comb(a2, k) * math.factorial(k)
                    d2 = dict(delta)
                    d2[ci] = d2.get(ci, 0) - k
                    d2[di] = d2.get(di, 0) - k
                    if sig.homog is not None and k:
                        d2[sig.homog] = d2.get(sig.homog, 0) + 2 * k
                    expanded.append((d2, coeff * c))
            choices = expanded
    base = tuple(a + b for a, b in zip(e1, e2))
    for delta, coeff in choices:
        if delta:
            exps = list(base)
            for pos, shift in delta.items():
                exps[pos] += shift
            yield tuple(exps), coeff
        else:
            yield base, coeff


class WeylElement:
    """A finite rational combination of normally ordered monomials."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: AlgebraSignature, terms: Dict[Exponent, object]):
        self.sig = sig
        clean = {}
        for exps, coeff in terms.items():
            coeff = Q(coeff)
            if coeff != 0:
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, sig: AlgebraSignature) -> "WeylElement":
        return cls(sig, {})

    @classmethod
    def const(cls, sig: AlgebraSignature, value) -> "WeylElement":
        return cls(sig, {(0,) * sig.ngens: Q(value)})

    @classmethod
    def gen(cls, sig: AlgebraSignature, name: str, power: int = 1) -> "WeylElement":
        exps = [0] * sig.ngens
        exps[sig.index(name)] = power
        return cls(sig, {tuple(exps): ONE})

    @classmethod
    def from_poly(cls, sig: AlgebraSignature, poly: MultiPoly) -> "WeylElement":
        positions = [sig.index(v) for v in poly.variables]
        terms = {}
        for exps, coeff in poly.terms.items():
            new = [0] * sig.ngens
            for pos, e in zip(positions, exps):
                new[pos] = e
            terms[tuple(new)] = coeff
        return cls(sig, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def _require_same(self, other: "WeylElement") -> None:
        if self.sig != other.sig:
            raise SignatureMismatch("operands live in different algebras")

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            other = WeylElement.const(self.sig, other)
        self._require_same(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, ZERO) + coeff
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return WeylElement(self.sig, terms)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement(self.sig, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, WeylElement):
            other = WeylElement.const(self.sig, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            scalar = Q(other)
            return WeylElement(self.sig, {e: c * scalar for e, c in self.terms.items()})
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
        return WeylElement(self.sig, terms)

    def __rmul__(self, other):
        # scalars only; element order matters otherwise
        scalar = Q(other)
        return WeylElement(self.sig, {e: c * scalar for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, tuple(sorted(self.terms.items()))))

    def commutator(self, other: "WeylElement") -> "WeylElement":
        return self * other - other * self

    def content_primitive(self) -> "WeylElement":
        """Remove rational content; integer, primitive, deterministic sign."""
        if not self.terms:
            return self
        factor = 1 / rational_content(self.terms.values())
        lead = max(self.terms, key=_revlex_key)
        if self.terms[lead] < 0:
            factor = -factor
        return WeylElement(self.sig, {e: c * factor for e, c in self.terms.items()})

    def coord_part_poly(self) -> MultiPoly:
        """View as a commutative polynomial in the coords (no derivations allowed)."""
        nc = len(self.sig.coords)
        terms = {}
        for exps, coeff in self.terms.items():
            if any(exps[nc:]):
                raise ValueError("element involves derivations")
            terms[exps[:nc]] = coeff
        return MultiPoly(self.sig.coords, terms)

    def __str__(self) -> str:
        terms = sorted(self.terms.items(), key=lambda t: _revlex_key(t[0]), reverse=True)
        return format_terms(self.sig.names, terms)

    def __repr__(self) -> str:
        return f"WeylElement({self})"


# -- monomial orders ----------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """degrevlex | weight vector with degrevlex tiebreak."""

    kind: str = "degrevlex"
    weights: Tuple[int, ...] = ()

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

    def has_negative_weight(self) -> bool:
        return self.kind == "weight" and any(w < 0 for w in self.weights)

    def wdeg(self, exps: Exponent) -> int:
        if self.kind != "weight":
            return 0
        return sum(w * e for w, e in zip(self.weights, exps))

    def key(self, exps: Exponent):
        if self.kind == "weight":
            return (self.wdeg(exps),) + _revlex_key(exps)
        return _revlex_key(exps)

    def extended(self, sig_h: AlgebraSignature) -> "MonomialOrder":
        """Lift to the homogenized signature (h gets weight 0)."""
        if self.kind != "weight":
            return self
        nc = len(sig_h.coords)
        w = self.weights[: nc - 1] + (0,) + self.weights[nc - 1 :]
        return MonomialOrder("weight", w)

"""Multivariate polynomials over the exact rationals.

Terms map exponent tuples to nonzero exact rational coefficients (see
rationals).  Values are treated as immutable after construction; every
operation returns a fresh polynomial.  Term iteration order is fixed
(degrevlex, descending) so that printing and hashing are deterministic.

`SparseTerms` is the core that `MultiPoly` shares with weyl's normally
ordered operators: sums, scalar multiples, constants, degree and printing
of such a map.  The two differ only in their space (a variable list, an
algebra signature) and their product.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd
from operator import add, neg, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .rationals import ONE, Q, ZERO, coprime_integers, div

Exponent = Tuple[int, ...]


def _revlex_key(exps: Exponent):
    return (sum(exps),) + tuple(map(neg, reversed(exps)))


def _heap_key(exps: Exponent):
    """Negated _revlex_key: the smallest heap key is the leading monomial."""
    return (-sum(exps),) + exps[::-1]


class SparseTerms:
    """Exponent tuple -> nonzero rational maps over one space of generators.

    A subclass says how `_wrap` puts clean terms in self's space, when
    `_require_same` accepts other as sharing it, and what `_names` the
    generators have.  Only scalars and elements of self's own class
    combine with self, so a polynomial and an operator never mix."""

    __slots__ = ("terms",)

    @classmethod
    def zero(cls, space):
        return cls(space, {})

    @classmethod
    def const(cls, space, value):
        return cls.zero(space)._constant(value)

    def _constant(self, value):
        """The scalar value as an element of self's space."""
        value = Q(value)
        return self._wrap({(0,) * len(self._names()): value} if value else {})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> List[Tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=lambda t: _revlex_key(t[0]), reverse=True)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = self._constant(other)
        self._require_same(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, ZERO) + coeff
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return self._wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, scalar):
        """self times a rational scalar."""
        scalar = Q(scalar)
        return self._wrap({e: c * scalar for e, c in self.terms.items()} if scalar else {})

    def __str__(self) -> str:
        return format_terms(self._names(), self.sorted_terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class MultiPoly(SparseTerms):
    """A polynomial in a fixed ordered list of variables."""

    __slots__ = ("variables", "_hash")

    def __init__(self, variables: Sequence[str], terms: Dict[Exponent, object]):
        self.variables = tuple(variables)
        clean = {}
        for exps, coeff in terms.items():
            coeff = Q(coeff)
            if coeff == 0:
                continue
            if len(exps) != len(self.variables):
                raise ValueError("exponent vector length mismatch")
            clean[tuple(exps)] = coeff
        self.terms = clean
        self._hash = None

    def _wrap(self, terms: Dict[Exponent, object]) -> "MultiPoly":
        """A polynomial over self's variables with terms that are already
        clean: tuple exponents of the right length, nonzero exact
        coefficients.  Takes ownership of the dict."""
        poly = MultiPoly.__new__(MultiPoly)
        poly.variables = self.variables
        poly.terms = terms
        poly._hash = None
        return poly

    def _require_same(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def _names(self) -> Tuple[str, ...]:
        return self.variables

    # -- constructors ---------------------------------------------------

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        idx = tuple(variables).index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): ONE})

    # -- basic queries --------------------------------------------------

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        return max((e[idx] for e in self.terms), default=0)

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scaled(other)
        self._require_same(other)
        terms: Dict[Exponent, object] = {}
        get = terms.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                terms[exps] = get(exps, ZERO) + c1 * c2
        return self._wrap({e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def shifted(self, exps: Exponent) -> "MultiPoly":
        """self times the monomial with exponents exps."""
        if len(exps) != len(self.variables):
            raise ValueError("exponent vector length mismatch")
        return self._wrap({tuple(map(add, e, exps)): c for e, c in self.terms.items()})

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.variables, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base_needed = power >> 1
            if base_needed:
                base = base * base
            power = base_needed
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, tuple(self.sorted_terms())))
        return self._hash

    # -- calculus and substitution --------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        idx = self.variables.index(name)
        terms: Dict[Exponent, object] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e:
                terms[exps[:idx] + (e - 1,) + exps[idx + 1 :]] = coeff * e
        return self._wrap(terms)

    def extend_to(self, variables: Sequence[str]) -> "MultiPoly":
        """Embed into a superset of variables (order of new list wins)."""
        variables = tuple(variables)
        positions = [variables.index(v) for v in self.variables]
        terms: Dict[Exponent, object] = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(positions, exps):
                new[pos] = e
            terms[tuple(new)] = coeff
        return MultiPoly.zero(variables)._wrap(terms)

    def compose(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """self with its i-th variable replaced by images[i]; the images
        share one variable list, which the result is over."""
        acc = MultiPoly.zero(images[0].variables)
        for exps, coeff in self.terms.items():
            term = acc._constant(coeff)
            for image, e in zip(images, exps, strict=True):
                term = term * image ** e
            acc = acc + term
        return acc

    # -- division -------------------------------------------------------

    def leading(self) -> Tuple[Exponent, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_revlex_key)
        return exps, self.terms[exps]

    def divmod_single(self, divisor: "MultiPoly"):
        """Division with remainder by one divisor under degrevlex.

        The leading term of what is left of the dividend is cancelled by a
        multiple of the divisor when the divisor's leading monomial divides
        it, and moved to the remainder otherwise.  What is left sits in one
        working dict, and a heap holds its monomials, each keyed once when
        it enters; a monomial that cancelled may still sit in the heap, and
        is skipped when popped.
        """
        self._require_same(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead_e, lead_c = divisor.leading()
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead_e]
        work = dict(self.terms)
        heap = [(_heap_key(e), e) for e in work]
        heapify(heap)
        quotient: Dict[Exponent, object] = {}
        remainder: Dict[Exponent, object] = {}
        while heap:
            exps = heappop(heap)[1]
            coeff = work.pop(exps, None)
            if coeff is None:
                continue
            mono_e = tuple(map(sub, exps, lead_e))
            if min(mono_e, default=0) < 0:
                remainder[exps] = coeff
                continue
            q = div(coeff, lead_c)
            quotient[mono_e] = q
            for e, c in tail:
                key = tuple(map(add, mono_e, e))
                acc = work.get(key)
                if acc is None:
                    work[key] = -q * c
                    heappush(heap, (_heap_key(key), key))
                else:
                    acc -= q * c
                    if acc:
                        work[key] = acc
                    else:
                        del work[key]
        return (
            self._wrap(quotient),
            self._wrap(remainder),
        )

    # -- normalization --------------------------------------------------

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self * div(1, lc)

    # -- univariate views -----------------------------------------------

    def univariate_in(self, name: str) -> List[object]:
        """Coefficient list [c0, c1, ...]; fails if other variables appear."""
        idx = self.variables.index(name)
        coeffs: List[object] = []
        for exps, coeff in self.terms.items():
            if any(e for i, e in enumerate(exps) if i != idx):
                raise ValueError(f"not univariate in {name}")
            d = exps[idx]
            while len(coeffs) <= d:
                coeffs.append(ZERO)
            coeffs[d] = coeff
        return coeffs if coeffs else [ZERO]


def format_coeff(coeff) -> str:
    """"p/q", or "p" when q = 1."""
    if coeff.denominator == 1:
        return str(coeff.numerator)
    return f"{coeff.numerator}/{coeff.denominator}"


def format_terms(names: Sequence[str], terms: Sequence[Tuple[Exponent, object]]) -> str:
    """Terms (exponents over names, coefficient), in the given order, as a
    sum such as "x^2*y - 1/2*y + 3"."""
    if not terms:
        return "0"
    parts = []
    for exps, coeff in terms:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            chunk = format_coeff(coeff)
        elif coeff == 1:
            chunk = body
        elif coeff == -1:
            chunk = f"-{body}"
        else:
            chunk = f"{format_coeff(coeff)}*{body}"
        parts.append(chunk)
    out = parts[0]
    for chunk in parts[1:]:
        out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return out


def unify(*polys: MultiPoly) -> List[MultiPoly]:
    """Re-embed polynomials over the union of their variable lists."""
    variables: List[str] = []
    for p in polys:
        for v in p.variables:
            if v not in variables:
                variables.append(v)
    return [p.extend_to(variables) for p in polys]


def _int_divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _integer_value(coeffs: List[int], p: int, q: int) -> int:
    """q^n c(p/q) = sum_i c_i p^i q^(n-i), coeffs [c_0 .. c_n]."""
    value, qpow = 0, 1
    for c in reversed(coeffs):
        value = value * p + c * qpow
        qpow *= q
    return value


def _deflated(coeffs: List[int], p: int, q: int) -> Optional[List[int]]:
    """Integer coefficients of c / (q v - p), or None when q v - p does not
    divide c over the integers."""
    out, b = [], 0
    for c in reversed(coeffs[1:]):
        b, rest = divmod(c + p * b, q)
        if rest:
            return None
        out.append(b)
    return out[::-1] if coeffs[0] + p * b == 0 else None


def rational_roots(p: MultiPoly) -> Dict[object, int]:
    """The rational roots of a univariate polynomial; returns only the
    dict root -> multiplicity.

    p splits over Q iff the multiplicities sum to its degree.  On the
    coprime integer coefficients c_0 .. c_n, zero has the multiplicity of
    the low zero coefficients; every other root is a reduced a/q with
    a | c_0 and q | c_n (rational root theorem).  Each candidate is tested
    once, by an integer evaluation, in the order of (|a|, q, sign), and a
    root is divided out as often as q v - a divides exactly; the roots are
    listed in that order.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    live = [v for v in p.variables if p.degree_in(v) > 0]
    if len(live) > 1:
        raise ValueError("not univariate")
    if not live:
        return {}
    coeffs = list(coprime_integers(dict(enumerate(p.univariate_in(live[0])))).values())
    roots: Dict[object, int] = {}
    zeros = next(i for i, c in enumerate(coeffs) if c)
    if zeros:
        roots[ZERO] = zeros
        coeffs = coeffs[zeros:]
    for a, q in product(_int_divisors(coeffs[0]), _int_divisors(coeffs[-1])):
        if len(coeffs) == 1:
            break
        if gcd(a, q) != 1 or coeffs[0] % a or coeffs[-1] % q:
            continue
        for num in (a, -a):
            if _integer_value(coeffs, num, q) == 0:
                mult = 0
                while (quotient := _deflated(coeffs, num, q)) is not None:
                    coeffs, mult = quotient, mult + 1
                roots[Q(num, q)] = mult
    return roots

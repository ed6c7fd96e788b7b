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
from math import gcd, isqrt
from operator import add, ne, neg, sub
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
        # a one-term operand shifts and scales the other's terms, in the
        # order the double loop below would insert them; a constant only
        # scales them
        if len(other.terms) == 1:
            [(e2, c2)] = other.terms.items()
            if not any(e2):
                return self._wrap({e1: c1 * c2 for e1, c1 in self.terms.items()})
            return self._wrap({tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in self.terms.items()})
        if len(self.terms) == 1:
            [(e1, c1)] = self.terms.items()
            if not any(e1):
                return self._wrap({e2: c1 * c2 for e2, c2 in other.terms.items()})
            return self._wrap({tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in other.terms.items()})
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


def _remainder(f: List[int], g: List[int]) -> List[int]:
    """The primitive positive multiple of f mod g, on integer coefficient
    lists [c_0 .. c_n] with c_n != 0; [] when g divides f."""
    f = list(f)
    lead = g[-1]
    while len(f) >= len(g) and f:
        c = f[-1]
        gamma = gcd(c, lead)
        a, b = abs(lead) // gamma, c // gamma * (1 if lead > 0 else -1)
        shift = len(f) - len(g)
        f = [a * x for x in f]
        for k, y in enumerate(g):
            f[shift + k] -= b * y
        while f and not f[-1]:
            f.pop()
    content = gcd(*f) if f else 1
    return [x // content for x in f]


def _quotient(f: List[int], g: List[int]) -> List[int]:
    """f / g for a primitive g that divides f over the integers."""
    f, out = list(f), []
    for shift in range(len(f) - len(g), -1, -1):
        q = f[shift + len(g) - 1] // g[-1]
        out.append(q)
        for k, y in enumerate(g):
            f[shift + k] -= q * y
    return out[::-1]


def _sturm(c: List[int]) -> List[List[int]]:
    """A Sturm sequence of c, scaled by positive factors; its last entry is
    gcd(c, c') up to sign."""
    derivative = [k * x for k, x in enumerate(c)][1:]
    content = gcd(*derivative)
    seq = [c, [x // content for x in derivative]]
    while len(seq[-1]) > 1 and (r := _remainder(seq[-2], seq[-1])):
        seq.append([-x for x in r])
    return seq


def _variations(signs: List[bool]) -> int:
    return sum(map(ne, signs, signs[1:]))


def _root_bound(c: List[int]) -> int:
    """2^(k+1) for the least k >= -1 with |c_(n-i)| < |c_n| 2^(k i) for
    every i: above the absolute value of every root (Fujiwara's bound)."""
    top = abs(c[-1]).bit_length()
    k = max(-((top - abs(x).bit_length() - 1) // i) for i, x in enumerate(reversed(c)) if i and x)
    return 1 << max(k + 1, 0)


def _isolated(seq: List[List[int]]) -> List[Tuple[int, int, int]]:
    """Intervals (lo/2^e, hi/2^e], each holding one real root of c =
    seq[0], for a Sturm sequence seq of a squarefree c.

    The sign changes at -+infinity and at 0, read from the end
    coefficients, count the roots on either side of 0, inside
    `_root_bound`; bisection at dyadic points separates them."""
    bound = _root_bound(seq[0])
    at_zero = _variations([g[0] > 0 for g in seq if g[0]])
    todo = [
        (-bound, 0, 0, _variations([(g[-1] > 0) == (len(g) % 2 == 1) for g in seq]), at_zero),
        (0, bound, 0, at_zero, _variations([g[-1] > 0 for g in seq])),
    ]
    found = []
    while todo:
        lo, hi, e, vlo, vhi = todo.pop()
        if vlo - vhi == 1:
            found.append((lo, hi, e))
        elif vlo > vhi:
            mid, e = lo + hi, e + 1
            vmid = _variations(
                [v > 0 for v in (_integer_value(g, mid, 1 << e) for g in seq) if v]
            )
            todo += [(2 * lo, mid, e, vlo, vmid), (mid, 2 * hi, e, vmid, vhi)]
    return found


def _rational_root_in(c: List[int], lo: int, hi: int, e: int) -> Optional[Tuple[int, int]]:
    """The root a/q of c in (lo/2^e, hi/2^e] as a reduced (a, q), when it
    is rational; None otherwise.

    c must change sign across one root there: c(hi/2^e) is zero or of the
    other sign than c just right of lo/2^e.  Bisection by the sign of c
    keeps such a root until the interval is narrower than 1/|c_n|; a
    rational root is u/|c_n| for an integer u, so the one such point left
    is tested."""
    lead = abs(c[-1])
    top = _integer_value(c, hi, 1 << e)
    while top and (hi - lo) * lead >= 1 << e:
        lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = lo + hi >> 1
        value = _integer_value(c, mid, 1 << e)
        if value and (value > 0) != (top > 0):
            lo = mid
        else:
            hi, top = mid, value
    u = lead * hi >> e
    if u << e <= lead * lo or _integer_value(c, u, lead):
        return None
    return _reduced(u, lead)


def _reduced(a: int, q: int) -> Tuple[int, int]:
    """a/q in lowest terms, q > 0."""
    g = gcd(a, q) if q > 0 else -gcd(a, q)
    return a // g, q // g


def _divided_out(c: List[int], a: int, q: int) -> Tuple[List[int], int]:
    """c with q v - a divided out as often as it divides exactly, and how
    often that was."""
    mult = 0
    while (quotient := _deflated(c, a, q)) is not None:
        c, mult = quotient, mult + 1
    return c, mult


def _low_degree_factors(c: List[int]) -> List[Tuple[int, int, int]]:
    """`_rational_factors` of c of degree at most 2, by the closed form."""
    if len(c) < 3:
        return [(*_reduced(-c[0], c[1]), 1)] if len(c) == 2 else []
    disc = c[1] * c[1] - 4 * c[0] * c[2]
    root = isqrt(max(disc, 0))
    if root * root != disc:
        return []
    if not root:
        return [(*_reduced(-c[1], 2 * c[2]), 2)]
    return [(*_reduced(-c[1] + sign * root, 2 * c[2]), 1) for sign in (1, -1)]


def _rational_factors(c: List[int]) -> List[Tuple[int, int, int]]:
    """Each rational root a/q of c, c_0 != 0, as (a, q, multiplicity),
    a/q in lowest terms.

    Sturm isolation finds the roots at any degree: of c when it is
    squarefree, else of its squarefree part c / gcd(c, c'), each then
    divided out of c as often as q v - a divides it.  Most b's have degree
    3 or less, where building and evaluating a Sturm sequence costs about
    twice as much as two cheaper steps, which come first: at odd degree
    >= 3, c changes sign on (-B, B] for the root bound B, and a rational
    root that bisection finds there is divided out before the search goes
    on; at degree 2 or less the closed form answers.
    """
    found = []
    while len(c) > 3 and len(c) % 2 == 0:
        bound = _root_bound(c)
        root = _rational_root_in(c, -bound, bound, 0)
        if root is None:
            break
        c, mult = _divided_out(c, *root)
        found.append((*root, mult))
    if len(c) <= 3:
        return found + _low_degree_factors(c)
    seq = _sturm(c)
    if len(seq[-1]) == 1:  # gcd(c, c') is constant: c is squarefree
        roots = (_rational_root_in(c, *interval) for interval in _isolated(seq))
        return found + [(*root, 1) for root in roots if root is not None]
    for a, q, _ in _rational_factors(_quotient(c, seq[-1])):
        c, mult = _divided_out(c, a, q)
        found.append((a, q, mult))
    return found


def rational_roots(p: MultiPoly) -> Dict[object, int]:
    """The rational roots of a univariate polynomial; returns only the
    dict root -> multiplicity.

    p splits over Q iff the multiplicities sum to its degree.  On the
    coprime integer coefficients c_0 .. c_n, zero has the multiplicity of
    the low zero coefficients; the others are found without factoring
    c_0 or c_n (`_rational_factors`).  The roots are listed in the order
    of (|a|, q, sign), positive first.
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
    for a, q, mult in sorted(_rational_factors(coeffs), key=lambda r: (abs(r[0]), r[1], r[0] < 0)):
        roots[Q(a, q)] = mult
    return roots

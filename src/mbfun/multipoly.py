"""Multivariate polynomials over the exact rationals.

Terms map exponent tuples to nonzero rational coefficients.  Values are
treated as immutable after construction; every operation returns a fresh
polynomial.  Term iteration order is fixed (degrevlex, descending) so that
printing and hashing are deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .rationals import ONE, Q, ZERO, rational_content

Exponent = Tuple[int, ...]

# Exponents live in machine words; desk-scale inputs never get close.
MAX_EXPONENT = 2**62


class ExponentOverflow(OverflowError):
    pass


def _check_exponent(e: int) -> int:
    if e >= MAX_EXPONENT:
        raise ExponentOverflow(f"monomial exponent {e} exceeds supported range")
    return e


def _revlex_key(exps: Exponent):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


class MultiPoly:
    """A polynomial in a fixed ordered list of variables."""

    __slots__ = ("variables", "terms", "_hash")

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

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MultiPoly":
        return cls(variables, {(0,) * len(variables): Q(value)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        idx = tuple(variables).index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): ONE})

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * len(self.variables), ZERO)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        return max((e[idx] for e in self.terms), default=0)

    def sorted_terms(self) -> List[Tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=lambda t: _revlex_key(t[0]), reverse=True)

    # -- arithmetic -----------------------------------------------------

    def _require_same(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        self._require_same(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, ZERO) + coeff
            if acc == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            scalar = Q(other)
            if scalar == 0:
                return MultiPoly.zero(self.variables)
            return MultiPoly(self.variables, {e: c * scalar for e, c in self.terms.items()})
        self._require_same(other)
        terms: Dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(_check_exponent(a + b) for a, b in zip(e1, e2))
                acc = terms.get(exps, ZERO) + c1 * c2
                if acc == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = acc
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

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
        if isinstance(other, (int,)) or type(other) is type(ZERO):
            other = MultiPoly.const(self.variables, other)
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
            if exps[idx] == 0:
                continue
            new = list(exps)
            new[idx] -= 1
            key = tuple(new)
            acc = terms.get(key, ZERO) + coeff * exps[idx]
            if acc == 0:
                terms.pop(key, None)
            else:
                terms[key] = acc
        return MultiPoly(self.variables, terms)

    def evaluate(self, values: Dict[str, object]):
        """Full evaluation at rational values; every variable must be bound."""
        total = ZERO
        order = [Q(values[v]) for v in self.variables]
        for exps, coeff in self.terms.items():
            prod = coeff
            for val, e in zip(order, exps):
                if e:
                    prod = prod * val**e
            total = total + prod
        return total

    def substitute(self, name: str, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial (over the same variables) for one variable."""
        self._require_same(replacement)
        idx = self.variables.index(name)
        powers = {0: MultiPoly.const(self.variables, 1)}
        result = MultiPoly.zero(self.variables)
        for exps, coeff in self.sorted_terms():
            e = exps[idx]
            if e not in powers:
                powers[e] = replacement**e
            rest = list(exps)
            rest[idx] = 0
            mono = MultiPoly(self.variables, {tuple(rest): coeff})
            result = result + mono * powers[e]
        return result

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
        return MultiPoly(variables, terms)

    # -- division -------------------------------------------------------

    def leading(self) -> Tuple[Exponent, object]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_revlex_key)
        return exps, self.terms[exps]

    def divmod_single(self, divisor: "MultiPoly"):
        """Division with remainder by one divisor under degrevlex."""
        self._require_same(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lead_e, lead_c = divisor.leading()
        quotient = MultiPoly.zero(self.variables)
        remainder = MultiPoly.zero(self.variables)
        work = self
        while not work.is_zero():
            exps, coeff = work.leading()
            if all(a >= b for a, b in zip(exps, lead_e)):
                mono_e = tuple(a - b for a, b in zip(exps, lead_e))
                mono = MultiPoly(self.variables, {mono_e: coeff / lead_c})
                quotient = quotient + mono
                work = work - mono * divisor
            else:
                mono = MultiPoly(self.variables, {exps: coeff})
                remainder = remainder + mono
                work = work - mono
        return quotient, remainder

    def divides(self, other: "MultiPoly") -> bool:
        """True iff other == self * q exactly over Q."""
        if self.is_zero():
            raise ValueError("zero divisor")
        _, rem = other.divmod_single(self)
        return rem.is_zero()

    def exact_quotient(self, divisor: "MultiPoly") -> "MultiPoly":
        quo, rem = self.divmod_single(divisor)
        if not rem.is_zero():
            raise ValueError("not an exact multiple")
        return quo

    # -- normalization --------------------------------------------------

    def content(self):
        """Positive rational c with self/c integer and primitive."""
        if self.is_zero():
            return ONE
        return rational_content(self.terms.values())

    def primitive(self) -> "MultiPoly":
        if self.is_zero():
            return self
        c = self.content()
        return self * (1 / c)

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self * (1 / lc)

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

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.variables, self.sorted_terms())

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


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


def poly_from_roots(var_list: Sequence[str], name: str, roots: Dict[object, int]) -> MultiPoly:
    s = MultiPoly.var(var_list, name)
    result = MultiPoly.const(var_list, 1)
    for root, mult in sorted(roots.items()):
        result = result * (s - MultiPoly.const(var_list, root)) ** mult
    return result


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


def rational_roots(p: MultiPoly):
    """Split off all rational linear factors of a univariate polynomial.

    Returns (roots, remainder) with p == remainder * prod (v - r)^mult and
    remainder free of rational roots (rational root theorem on the
    primitive integer form).
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    live = [v for v in p.variables if p.degree_in(v) > 0]
    if len(live) > 1:
        raise ValueError("not univariate")
    if not live:
        return {}, p
    name = live[0]
    var = MultiPoly.var(p.variables, name)
    roots: Dict[object, int] = {}
    work = p
    while work.degree_in(name) > 0:
        coeffs = work.primitive().univariate_in(name)
        lead = int(coeffs[-1].numerator)
        k = 0
        while coeffs[k] == 0:
            k += 1
        if k:
            roots[ZERO] = roots.get(ZERO, 0) + k
            terms = {}
            idx = work.variables.index(name)
            for exps, coeff in work.terms.items():
                new = list(exps)
                new[idx] -= k
                terms[tuple(new)] = coeff
            work = MultiPoly(work.variables, terms)
            continue
        const = int(coeffs[k].numerator)
        found = None
        for pn in _int_divisors(const):
            for qn in _int_divisors(lead):
                for sign in (1, -1):
                    cand = Q(sign * pn, qn)
                    if work.evaluate({name: cand} | {v: ZERO for v in work.variables if v != name}) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        work = work.exact_quotient(var - MultiPoly.const(p.variables, found))
    return roots, work

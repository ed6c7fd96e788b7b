"""Bridge to sympy for commutative polynomial questions.

Only classical commutative facts cross this boundary: gcd/coprimality and
radical membership.  All D-module computation stays in-package.
"""

from __future__ import annotations

from typing import Sequence

import sympy

from .multipoly import MultiPoly


def to_sympy(p: MultiPoly):
    symbols = sympy.symbols(p.variables) if p.variables else ()
    if isinstance(symbols, sympy.Symbol):
        symbols = (symbols,)
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(int(coeff.numerator), int(coeff.denominator))
        for sym, e in zip(symbols, exps):
            if e:
                term *= sym**e
        expr += term
    return expr, symbols


def are_coprime(F: MultiPoly, G: MultiPoly) -> bool:
    ef, sf = to_sympy(F)
    eg, _ = to_sympy(G)
    if not sf:
        return True
    g = sympy.gcd(ef, eg)
    return g.is_number


def radical_contains(gens: Sequence[MultiPoly], target: MultiPoly) -> bool:
    """target ∈ √⟨gens⟩, via the extra-variable trick 1 - z*target."""
    if target.is_zero():
        return all(g.is_zero() for g in gens)
    exprs = []
    symbols = None
    for g in gens:
        e, syms = to_sympy(g)
        exprs.append(e)
        if syms:
            symbols = syms
    et, syms = to_sympy(target)
    if syms:
        symbols = syms
    if symbols is None:
        return any(not g.is_zero() for g in gens)
    z = sympy.Symbol("z_rad_")
    basis = sympy.groebner(
        [sympy.expand(e) for e in exprs] + [1 - z * et],
        *symbols, z, order="grevlex"
    )
    return any(term == 1 for term in basis.exprs)

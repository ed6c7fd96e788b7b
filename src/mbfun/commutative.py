"""Commutative polynomial questions, answered with the package's own exact
linear algebra and Groebner bases.

The b-functions of F/G are defined for coprime F, G, and the reduced
b-function needs the smoothness test V(h) ⊆ V(G), a radical membership.
Coprimality reduces to the rank of one exact linear system, and radical
membership to an ideal membership with one extra variable (Cox, Little &
O'Shea, Ideals, Varieties, and Algorithms, §4.2).
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import List, Sequence

from . import linalg
from .errors import CapabilityError
from .groebner import LeftIdeal
from .multipoly import Exponent, MultiPoly, unify
from .weyl import AlgebraSignature, WeylElement

# the most products m F and m G the coprimality test builds
MAX_COPRIME_PRODUCTS = 2000


def _monomials_below(n: int, deg: int) -> List[Exponent]:
    """Exponent vectors in n variables of total degree < deg."""
    return [e for e in product(range(deg), repeat=n) if sum(e) < deg]


def are_coprime(F: MultiPoly, G: MultiPoly) -> bool:
    """True iff F and G have no nonconstant common factor.

    A common factor H gives A F = B G with A = G/H and B = F/H, of degrees
    below deg G and deg F.  Conversely, when gcd(F, G) = 1, G | A F with
    deg A < deg G forces A = 0, and then B = 0.  So F, G are coprime iff
    the products m F (deg m < deg G) and m G (deg m < deg F), m monomials,
    are linearly independent over Q.  There are C(deg G - 1 + n, n) +
    C(deg F - 1 + n, n) of them, n variables; CapabilityError is raised,
    before any is built, when that is above MAX_COPRIME_PRODUCTS.
    """
    F, G = unify(F, G)
    n = len(F.variables)
    count = comb(G.total_degree() - 1 + n, n) + comb(F.total_degree() - 1 + n, n)
    if count > MAX_COPRIME_PRODUCTS:
        raise CapabilityError(
            f"coprimality test needs {count} products, above the limit of "
            f"{MAX_COPRIME_PRODUCTS}"
        )
    products = [F.shifted(e) for e in _monomials_below(n, G.total_degree())]
    products += [G.shifted(e) for e in _monomials_below(n, F.total_degree())]
    rows, _ = linalg.identity_system([p.terms for p in products])
    return not linalg.nullspace(rows, len(products))


def radical_contains(gens: Sequence[MultiPoly], target: MultiPoly) -> bool:
    """target ∈ √⟨gens⟩, by the Rabinowitsch trick: 1 ∈ ⟨gens, 1 - z target⟩
    in Q[x, z], the PBW algebra whose generators are all central.  The
    underscore in z_ keeps it apart from every parsed variable name."""
    *gens, target = unify(*gens, target)
    sig = AlgebraSignature.make(central=target.variables + ("z_",))
    z = WeylElement.gen(sig, "z_")
    ideal = LeftIdeal(
        sig,
        [WeylElement.from_poly(sig, g) for g in gens]
        + [1 - z * WeylElement.from_poly(sig, target)],
    )
    return ideal.contains(WeylElement.const(sig, 1))

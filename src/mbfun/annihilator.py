"""Annihilators of power-product symbols and classical b-functions.

The annihilator of F_1^{s_1}...F_k^{s_k} is computed by the
Briancon-Maisonobe scheme: one derivation d_{t_i} per factor, with
d_{t_i} s_i = (s_i - 1) d_{t_i} (s_i = -d_{t_i} t_i, the convention of
vfiltration) and every other pair of generators commuting as in D_n[s].
In that algebra the left ideal

    < s_i + F_i d_{t_i},  d_j + sum_i (dF_i/dx_j) d_{t_i} >

meets D_n[s_1..s_k] in Ann(F_1^{s_1}...F_k^{s_k}), so eliminating the
d_{t_i} (weight 1 on each) gives it.  The classical b-function is then the
generator of (Ann + D[s] F) ∩ Q[s]; a Bernstein-Sato ideal element for a
pair (F, G) comes from the same construction with F*G added and the
x-pairs eliminated.

References: J. Briancon and Ph. Maisonobe, "Remarques sur l'ideal de
Bernstein associe a des polynomes", preprint 650, Univ. Nice (2002);
V. Levandovskyy and J. Martin-Morales, "Computational D-module theory with
SINGULAR, comparison with other systems and two new algorithms", ISSAC
2008.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .bfunction import BFunction, S_VAR
from .errors import NotSpecializableError, ZeroSpecializationError
from .groebner import LeftIdeal, eliminate
from .merobf import CERTIFIED, UNCERTIFIED, meromorphic_pair
from .multipoly import MultiPoly, unify
from .oracle import prefactored_witness
from .rationals import Q
from .sections import dname
from .vfiltration import b_polynomial, central_intersection
from .weyl import AlgebraSignature, WeylElement


def ann_fs(factors: Sequence[Tuple[MultiPoly, str]]) -> LeftIdeal:
    """Annihilator of prod F_i^{s_i} in D_n[s_1..s_k].

    The names t_i stay reserved: the derivation of a variable t_i would
    be the internal d_{t_i}."""
    polys = unify(*[F for F, _ in factors])
    s_names = [name for _, name in factors]
    if len(set(s_names)) != len(s_names):
        raise ValueError("s-variable names must be distinct")
    for F in polys:
        if F.is_zero():
            raise ValueError("factors must be nonzero")
    xvars = polys[0].variables
    ts = [f"t{i+1}" for i in range(len(polys))]
    dts = [dname(t) for t in ts]
    if set(ts + dts) & set(xvars):
        raise ValueError("input variables collide with reserved internal names")
    sig = AlgebraSignature.make(
        pairs=[(x, dname(x)) for x in xvars], shift_pairs=list(zip(s_names, dts))
    )

    def gen(name: str) -> WeylElement:
        return WeylElement.gen(sig, name)

    gens = [
        gen(s) + WeylElement.from_poly(sig, F) * gen(dt)
        for s, dt, F in zip(s_names, dts, polys)
    ]
    for x in xvars:
        elem = gen(dname(x))
        for dt, F in zip(dts, polys):
            elem = elem + WeylElement.from_poly(sig, F.derivative(x)) * gen(dt)
        gens.append(elem)
    return eliminate(LeftIdeal(sig, gens), dts)


def bernstein_sato(F: MultiPoly) -> BFunction:
    """Classical b-function: monic generator of (Ann(F^s) + D[s] F) ∩ Q[s]."""
    if F.is_zero() or F.is_constant():
        raise ValueError("F must be nonzero and nonconstant")
    ann = ann_fs([(F, S_VAR)])
    gens = list(ann.generators) + [WeylElement.from_poly(ann.sig, F)]
    return b_polynomial(LeftIdeal(ann.sig, gens))


@dataclass
class SabbahLineResult:
    b: BFunction                      # b(s) = bs_element(s, -s-m-2), monic
    bs_element: MultiPoly             # element of the Bernstein-Sato ideal, in (s1, s2)
    witness: Optional[WeylElement]    # P with b(s) f^s/G^m = G^2 P f^{s+1}/G^m
    status: str                       # CERTIFIED | UNCERTIFIED


def _specialize_line(p: MultiPoly, m: int) -> MultiPoly:
    """p(s1, s2) -> p(s, -s-m-2)."""
    s = MultiPoly.var((S_VAR,), S_VAR)
    line2 = -s - Q(m + 2)
    i1 = p.variables.index("s1")
    i2 = p.variables.index("s2")
    acc = MultiPoly.zero((S_VAR,))
    for exps, coeff in p.terms.items():
        if any(e for i, e in enumerate(exps) if i not in (i1, i2)):
            raise ValueError("not a polynomial in (s1, s2)")
        acc = acc + coeff * s ** exps[i1] * line2 ** exps[i2]
    return acc


def sabbah_line(
    F: MultiPoly,
    G: MultiPoly,
    m: int,
    witness_deg: int = 6,
) -> SabbahLineResult:
    """A Bernstein-Sato ideal element of (F, G) specialized to s2 = -s-m-2.

    The specialized polynomial satisfies b(s) (f^s/G^m) = G^2 P (f^{s+1}/G^m)
    and is a multiple of the meromorphic b-function for the same m.
    """
    F, G = meromorphic_pair(F, G, m)
    ann = ann_fs([(F, "s1"), (G, "s2")])
    gens = list(ann.generators) + [WeylElement.from_poly(ann.sig, F * G)]
    polys = central_intersection(LeftIdeal(ann.sig, gens))
    if not polys:
        raise NotSpecializableError(
            "Bernstein-Sato ideal elimination returned nothing within bounds"
        )
    polys = sorted(polys, key=lambda p: (p.total_degree(), str(p)))
    chosen = None
    for p in polys:
        spec = _specialize_line(p, m)
        if not spec.is_zero():
            chosen = (p, spec)
            break
    if chosen is None:
        raise ZeroSpecializationError(
            "every computed Bernstein-Sato ideal element vanishes on the line "
            f"s2 = -s-{m}-2; a different ideal element is required"
        )
    bs_elem, spec = chosen
    b = BFunction.from_poly(spec)
    witness = prefactored_witness(b, F, G, m, deg=witness_deg)
    status = CERTIFIED if witness is not None else UNCERTIFIED
    return SabbahLineResult(b, bs_elem, witness, status)

"""Annihilators of power-product symbols and classical b-functions.

The annihilator of F_1^{s_1}...F_k^{s_k} is computed by the
one-extra-variable-per-factor elimination scheme: in D_{n+k}[u_i, v_i]
(u_i, v_i central) take

    < t_i - u_i F_i,  u_i v_i - 1,  d_j + sum_i u_i (dF_i/dx_j) d_{t_i} >,

eliminate all u_i, v_i, and pass to the degree-zero part along each
(t_i, d_{t_i}) pair.  The generators are homogeneous for every per-factor
weight (t_i: -1, d_{t_i}: +1, u_i: -1, v_i: +1), homogeneity survives
Buchberger and elimination, so the degree-zero part is obtained by
shifting each eliminated generator with t_i / d_{t_i} powers and writing
each balanced block t_i^k d_{t_i}^k as its polynomial in the central
variable s_i = -t_i d_{t_i} - 1 (see vfiltration).  The classical
b-function is then the generator of (Ann + D[s] F) ∩ Q[s]; a
Bernstein-Sato ideal element for a pair (F, G) comes from the same
construction with F*G added and both x-pairs eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .bfunction import BFunction, S_VAR
from .errors import NotSpecializableError, ZeroSpecializationError
from .groebner import LeftIdeal, eliminate
from .merobf import meromorphic_pair
from .multipoly import MultiPoly, unify
from .oracle import prefactored_witness
from .rationals import Q
from .sections import dname
from .vfiltration import b_polynomial, central_intersection, homogeneous_theta_part
from .weyl import AlgebraSignature, WeylElement


def _graph_ideal_uv(
    factors: Sequence[MultiPoly],
) -> Tuple[LeftIdeal, List[Tuple[str, str]], List[Tuple[str, str]]]:
    xvars = factors[0].variables
    k = len(factors)
    taus = [(f"t{i+1}", f"dt{i+1}") for i in range(k)]
    uvs = [(f"u{i+1}", f"v{i+1}") for i in range(k)]
    reserved = {n for pair in taus + uvs for n in pair}
    if reserved & set(xvars):
        raise ValueError("input variables collide with reserved internal names")
    sig = AlgebraSignature.make(
        pairs=[(x, dname(x)) for x in xvars] + list(taus),
        central=[n for pair in uvs for n in pair],
    )
    gens: List[WeylElement] = []
    for (t, _), (u, v), F in zip(taus, uvs, factors):
        ug = WeylElement.gen(sig, u)
        gens.append(WeylElement.gen(sig, t) - ug * WeylElement.from_poly(sig, F))
        gens.append(ug * WeylElement.gen(sig, v) - 1)
    for x in xvars:
        elem = WeylElement.gen(sig, dname(x))
        for (_, dt), (u, _), F in zip(taus, uvs, factors):
            elem = elem + (
                WeylElement.gen(sig, u)
                * WeylElement.from_poly(sig, F.derivative(x))
                * WeylElement.gen(sig, dt)
            )
        gens.append(elem)
    return LeftIdeal(sig, gens), taus, uvs


def ann_fs(factors: Sequence[Tuple[MultiPoly, str]]) -> LeftIdeal:
    """Annihilator of prod F_i^{s_i} in D_n[s_1..s_k]."""
    polys = unify(*[F for F, _ in factors])
    s_names = [name for _, name in factors]
    if len(set(s_names)) != len(s_names):
        raise ValueError("s-variable names must be distinct")
    for F in polys:
        if F.is_zero():
            raise ValueError("factors must be nonzero")
    ideal, taus, uvs = _graph_ideal_uv(polys)
    ideal = eliminate(ideal, [n for pair in uvs for n in pair])
    for (t, dt), s_name in zip(taus, s_names):
        ideal = homogeneous_theta_part(ideal, t, dt, s_name)
    return ideal


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
    m: int
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
    status = "CERTIFIED" if witness is not None else "UNCERTIFIED"
    return SabbahLineResult(b, bs_elem, m, witness, status)

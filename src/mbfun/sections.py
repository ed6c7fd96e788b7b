"""Formal sections of the modules the engines and the oracle act on.

Two representations:

* LaurentSection — elements h * F^{-a} G^{-b} * f^{s+k} of O[1/(FG)][s] f^s
  for a fixed meromorphic f = F/G.  This is the oracle's working module.
* DeltaSection — elements h * (tG-F)^{-a} G^{-b} of O[1/((tG-F)G)],
  considered modulo O[1/G].  The canonical generator lives here and
  annihilator membership is decided in this quotient.

Both carry an exact, purely formal action of the relevant Weyl algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .multipoly import MultiPoly
from .rationals import Q
from .weyl import AlgebraSignature, WeylElement

S_VAR = "s"
T_VAR = "t"
DT_VAR = "dt"


def dname(x: str) -> str:
    return "d" + x


class MeroContext:
    """Fixed pair (F, G) with cached derivatives and power tables."""

    def __init__(self, F: MultiPoly, G: MultiPoly):
        if F.variables != G.variables:
            raise ValueError("F and G must share a variable list")
        self.xvars: Tuple[str, ...] = F.variables
        if S_VAR in self.xvars or T_VAR in self.xvars:
            raise ValueError(f"variable names {S_VAR!r}/{T_VAR!r} are reserved")
        self.F = F
        self.G = G
        self.ring: Tuple[str, ...] = self.xvars + (S_VAR,)
        self.Fr = F.extend_to(self.ring)
        self.Gr = G.extend_to(self.ring)
        self.s = MultiPoly.var(self.ring, S_VAR)
        self.dF = {x: F.derivative(x).extend_to(self.ring) for x in self.xvars}
        self.dG = {x: G.derivative(x).extend_to(self.ring) for x in self.xvars}
        self._powF: Dict[int, MultiPoly] = {0: MultiPoly.const(self.ring, 1)}
        self._powG: Dict[int, MultiPoly] = {0: MultiPoly.const(self.ring, 1)}
        self.sig = AlgebraSignature.make(
            pairs=[(x, dname(x)) for x in self.xvars], central=[S_VAR]
        )

    def powF(self, k: int) -> MultiPoly:
        if k not in self._powF:
            self._powF[k] = self.powF(k - 1) * self.Fr
        return self._powF[k]

    def powG(self, k: int) -> MultiPoly:
        if k not in self._powG:
            self._powG[k] = self.powG(k - 1) * self.Gr
        return self._powG[k]


@dataclass(frozen=True)
class LaurentSection:
    """numerator * F^{-fpow} * G^{-gpow} * f^{s+shift}."""

    ctx: MeroContext
    numerator: MultiPoly          # over ctx.ring = (x_1..x_n, s)
    fpow: int
    gpow: int
    shift: int = 0

    def renormalize(self) -> "LaurentSection":
        """Merge the shift: f^{s+k} = F^k G^{-k} f^s."""
        if self.shift == 0:
            return self
        k = self.shift
        return LaurentSection(
            self.ctx, self.numerator * self.ctx.powF(k), self.fpow, self.gpow + k, 0
        )

    def cleared_numerator(self, fpow: int, gpow: int) -> MultiPoly:
        """Numerator after raising to the common denominator F^fpow G^gpow."""
        v = self.renormalize()
        if fpow < v.fpow or gpow < v.gpow:
            raise ValueError("target denominator smaller than current one")
        return v.numerator * self.ctx.powF(fpow - v.fpow) * self.ctx.powG(gpow - v.gpow)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __add__(self, other: "LaurentSection") -> "LaurentSection":
        if self.ctx is not other.ctx:
            raise ValueError("sections from different contexts")
        a = max(self.fpow, other.fpow)
        b = max(self.renormalize().gpow, other.renormalize().gpow)
        return LaurentSection(
            self.ctx, self.cleared_numerator(a, b) + other.cleared_numerator(a, b), a, b, 0
        )

    def __sub__(self, other: "LaurentSection") -> "LaurentSection":
        return self + LaurentSection(
            other.ctx, -other.numerator, other.fpow, other.gpow, other.shift
        )

    def scaled(self, poly: MultiPoly) -> "LaurentSection":
        """Multiply by a polynomial in (x, s)."""
        return LaurentSection(
            self.ctx, self.numerator * poly, self.fpow, self.gpow, self.shift
        )

    def section_eq(self, other: "LaurentSection") -> bool:
        return (self - other).is_zero()


def base_section(ctx: MeroContext, m: int, shift: int = 0) -> LaurentSection:
    """The section f^{s+shift} / G^m."""
    return LaurentSection(ctx, MultiPoly.const(ctx.ring, 1), 0, m, shift)


def _apply_dx(v: LaurentSection, x: str) -> LaurentSection:
    # d/dx_i (h F^{-a} G^{-b} f^{s+k}) with f^{s+k} = F^{s+k} G^{-(s+k)}:
    #   [ (dh/dx) F G + h (s+k-a) F_i G - h (s+k+b) F G_i ] F^{-a-1} G^{-b-1} f^{s+k}
    ctx = v.ctx
    h = v.numerator
    sk = ctx.s + Q(v.shift)
    num = (
        h.derivative(x) * ctx.Fr * ctx.Gr
        + h * (sk - Q(v.fpow)) * ctx.dF[x] * ctx.Gr
        - h * (sk + Q(v.gpow)) * ctx.Fr * ctx.dG[x]
    )
    return LaurentSection(ctx, num, v.fpow + 1, v.gpow + 1, v.shift)


def apply_operator(P: WeylElement, v: LaurentSection) -> LaurentSection:
    """Exact action of P in D_n[s] (signature ctx.sig) on the section v."""
    ctx = v.ctx
    if P.sig != ctx.sig:
        raise ValueError("operator signature does not match the section context")
    n = len(ctx.xvars)
    total: Optional[LaurentSection] = None
    for exps, coeff in sorted(P.terms.items()):
        part = v
        for i, x in enumerate(ctx.xvars):
            for _ in range(exps[n + 1 + i]):
                part = _apply_dx(part, x)
        mono = {tuple(exps[: n + 1]): coeff}
        part = part.scaled(MultiPoly(ctx.ring, mono))
        total = part if total is None else total + part
    if total is None:
        return LaurentSection(ctx, MultiPoly.zero(ctx.ring), 0, 0, 0)
    return total


# -- the delta-module side ------------------------------------------------


class DeltaContext:
    """Ambient data for sections of O[1/((tG-F)G)] modulo O[1/G]."""

    def __init__(self, F: MultiPoly, G: MultiPoly, m: int):
        self.xvars = F.variables
        self.m = m
        self.ring: Tuple[str, ...] = self.xvars + (T_VAR,)
        self.F = F.extend_to(self.ring)
        self.G = G.extend_to(self.ring)
        t = MultiPoly.var(self.ring, T_VAR)
        self.P = t * self.G - self.F          # tG - F, the graph equation
        self.dF = {x: self.F.derivative(x) for x in self.xvars}
        self.dG = {x: self.G.derivative(x) for x in self.xvars}
        self.dP = {x: self.P.derivative(x) for x in self.xvars}
        self._powP: Dict[int, MultiPoly] = {0: MultiPoly.const(self.ring, 1)}
        self._powG: Dict[int, MultiPoly] = {0: MultiPoly.const(self.ring, 1)}
        self.sig = AlgebraSignature.make(
            pairs=[(x, dname(x)) for x in self.xvars] + [(T_VAR, DT_VAR)]
        )

    def powP(self, k: int) -> MultiPoly:
        if k not in self._powP:
            self._powP[k] = self.powP(k - 1) * self.P
        return self._powP[k]

    def powG(self, k: int) -> MultiPoly:
        if k not in self._powG:
            self._powG[k] = self.powG(k - 1) * self.G
        return self._powG[k]

    def generator(self) -> "DeltaSection":
        """sigma_m = G^{1-m} / (tG - F)."""
        if self.m >= 1:
            return DeltaSection(self, MultiPoly.const(self.ring, 1), 1, self.m - 1)
        return DeltaSection(self, self.G, 1, 0)


@dataclass(frozen=True)
class DeltaSection:
    """numerator * (tG-F)^{-ppow} * G^{-gpow}, modulo O[t][1/G]."""

    ctx: DeltaContext
    numerator: MultiPoly          # over ctx.ring = (x_1..x_n, t)
    ppow: int
    gpow: int

    def cleared_numerator(self, ppow: int, gpow: int) -> MultiPoly:
        if ppow < self.ppow or gpow < self.gpow:
            raise ValueError("target denominator smaller than current one")
        return (
            self.numerator
            * self.ctx.powP(ppow - self.ppow)
            * self.ctx.powG(gpow - self.gpow)
        )

    def __add__(self, other: "DeltaSection") -> "DeltaSection":
        if self.ctx is not other.ctx:
            raise ValueError("sections from different contexts")
        a = max(self.ppow, other.ppow)
        b = max(self.gpow, other.gpow)
        return DeltaSection(
            self.ctx, self.cleared_numerator(a, b) + other.cleared_numerator(a, b), a, b
        )

    def scaled(self, poly: MultiPoly) -> "DeltaSection":
        return DeltaSection(self.ctx, self.numerator * poly, self.ppow, self.gpow)

    def reduce(self) -> "DeltaSection":
        """Cancel (tG-F)-factors shared by numerator and denominator."""
        num, a = self.numerator, self.ppow
        while a > 0 and not num.is_zero():
            quo, rem = num.divmod_single(self.ctx.P)
            if not rem.is_zero():
                break
            num, a = quo, a - 1
        return DeltaSection(self.ctx, num, a, self.gpow)

    def is_zero_mod_holomorphic(self) -> bool:
        """Zero in the quotient by O[t][1/G]."""
        red = self.reduce()
        return red.ppow <= 0 or red.numerator.is_zero()


def _apply_delta_dx(v: DeltaSection, x: str) -> DeltaSection:
    # d/dx (h P^{-a} G^{-b}) = [h_x P G - a h P_x G - b h P G_x] P^{-a-1} G^{-b-1}
    ctx = v.ctx
    h = v.numerator
    num = (
        h.derivative(x) * ctx.P * ctx.G
        - Q(v.ppow) * h * ctx.dP[x] * ctx.G
        - Q(v.gpow) * h * ctx.P * ctx.dG[x]
    )
    return DeltaSection(ctx, num, v.ppow + 1, v.gpow + 1)


def _apply_delta_dt(v: DeltaSection) -> DeltaSection:
    # d/dt (h P^{-a} G^{-b}) = [h_t P - a h G] P^{-a-1} G^{-b}
    ctx = v.ctx
    h = v.numerator
    num = h.derivative(T_VAR) * ctx.P - Q(v.ppow) * h * ctx.G
    return DeltaSection(ctx, num, v.ppow + 1, v.gpow)


def apply_delta_operator(P: WeylElement, v: DeltaSection) -> DeltaSection:
    """Action of P in D_{n+1} (variables x, t) on the delta-module section."""
    ctx = v.ctx
    if P.sig != ctx.sig:
        raise ValueError("operator signature does not match the section context")
    n = len(ctx.xvars)
    total: Optional[DeltaSection] = None
    for exps, coeff in sorted(P.terms.items()):
        part = v
        for _ in range(exps[2 * n + 1]):
            part = _apply_delta_dt(part)
        for i, x in enumerate(ctx.xvars):
            for _ in range(exps[n + 1 + i]):
                part = _apply_delta_dx(part, x)
        part = part.scaled(MultiPoly(ctx.ring, {tuple(exps[: n + 1]): coeff}))
        total = part if total is None else total + part
    if total is None:
        return DeltaSection(ctx, MultiPoly.zero(ctx.ring), 0, 0)
    return total

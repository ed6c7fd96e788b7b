"""`ann_fs` against the u, v construction it once ran.

The reference below keeps that construction.  In D_{n+k}[u_i, v_i]
(u_i, v_i central) it takes

    < t_i - u_i F_i,  u_i v_i - 1,  d_j + sum_i u_i (dF_i/dx_j) d_{t_i} >,

eliminates every u_i and v_i, and passes to the degree-zero part along
each (t_i, d_{t_i}) pair: each generator is homogeneous for the weight
(t_i: -1, d_{t_i}: +1), so it is shifted by a power of t_i or d_{t_i} to
degree zero and its balanced blocks t_i^k d_{t_i}^k are written in
s_i = -t_i d_{t_i} - 1.  `ann_fs` must return the same signature and the
same generators, in the same order and with the same coefficient types;
on pairs, the central intersection that `sabbah_line` reads must agree as
well.
"""

import pytest

from mbfun.annihilator import ann_fs
from mbfun.groebner import LeftIdeal, eliminate
from mbfun.multipoly import unify
from mbfun.parser import parse_poly
from mbfun.sections import dname
from mbfun.vfiltration import _balance_and_rewrite, central_intersection
from mbfun.weyl import AlgebraSignature, MonomialOrder, WeylElement
from test_annihilator import CLASSICAL_PINS, SABBAH_PINS


def reference_ann_fs(factors):
    polys = unify(*[F for F, _ in factors])
    xvars = polys[0].variables
    taus = [(f"t{i+1}", f"dt{i+1}") for i in range(len(polys))]
    uvs = [(f"u{i+1}", f"v{i+1}") for i in range(len(polys))]
    sig = AlgebraSignature.make(
        pairs=[(x, dname(x)) for x in xvars] + taus,
        central=[n for pair in uvs for n in pair],
    )

    def gen(name):
        return WeylElement.gen(sig, name)

    gens = []
    for (t, _), (u, v), F in zip(taus, uvs, polys):
        gens.append(gen(t) - gen(u) * WeylElement.from_poly(sig, F))
        gens.append(gen(u) * gen(v) - 1)
    for x in xvars:
        elem = gen(dname(x))
        for (_, dt), (u, _), F in zip(taus, uvs, polys):
            elem = elem + gen(u) * WeylElement.from_poly(sig, F.derivative(x)) * gen(dt)
        gens.append(elem)
    ideal = eliminate(LeftIdeal(sig, gens), [n for pair in uvs for n in pair])
    for (t, dt), (_, s_name) in zip(taus, factors):
        order = MonomialOrder.weight(ideal.sig, {t: -1, dt: 1})
        ideal = _balance_and_rewrite(ideal.generators, ideal.sig, order, t, dt, s_name)
    return ideal


def exact(ideal):
    """Signature and generators, each term with its coefficient type."""
    return ideal.sig, [
        (str(g), sorted((e, type(c).__name__, c) for e, c in g.terms.items()))
        for g in ideal.generators
    ]


@pytest.mark.parametrize("text", [text for text, _ in CLASSICAL_PINS])
def test_ann_fs_matches_the_uv_construction(text):
    factors = [(parse_poly(text), "s")]
    assert exact(ann_fs(factors)) == exact(reference_ann_fs(factors))


PAIRS = sorted({(f, g) for f, g, *_ in SABBAH_PINS}) + [("x^2+y^3", "x"), ("x*y", "x+y^2")]


@pytest.mark.parametrize("ftext, gtext", PAIRS)
def test_pair_annihilator_matches_the_uv_construction(ftext, gtext):
    F, G = (parse_poly(text, ("x", "y")) for text in (ftext, gtext))
    factors = [(F, "s1"), (G, "s2")]
    got, want = ann_fs(factors), reference_ann_fs(factors)
    assert exact(got) == exact(want)

    def central(ann):
        gens = list(ann.generators) + [WeylElement.from_poly(ann.sig, F * G)]
        return [
            (p.variables, sorted((e, type(c).__name__, c) for e, c in p.terms.items()))
            for p in central_intersection(LeftIdeal(ann.sig, gens))
        ]

    assert central(got) == central(want)

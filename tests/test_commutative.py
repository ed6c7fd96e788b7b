"""Coprimality and radical membership against sympy on seeded inputs.

sympy is a test-only reference here: `sympy.gcd(F, G).is_number` decides
coprimality, and a reduced Groebner basis of <gens, 1 - z*target> equal to
[1] decides radical membership (the Rabinowitsch trick).
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from mbfun.commutative import are_coprime, radical_contains
from mbfun.multipoly import MultiPoly
from mbfun.parser import parse_poly

SRC = Path(__file__).resolve().parents[1] / "src"
NAMES = ("x", "y", "z")
COPRIME_PAIRS = 200
RADICAL_SYSTEMS = 100


def to_sympy(p: MultiPoly):
    symbols = [sympy.Symbol(v) for v in p.variables]
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(s**e for s, e in zip(symbols, exps)))
        for exps, c in p.terms.items()
    ))


def random_poly(rng, names, deg, nterms):
    """At most nterms terms of total degree <= deg, coefficients in -3..3,
    some of them halves or thirds; never zero."""
    terms = {}
    while not terms:
        for _ in range(nterms):
            exps = [0] * len(names)
            for _ in range(rng.randint(0, deg)):
                exps[rng.randrange(len(names))] += 1
            terms[tuple(exps)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                          rng.choice((1, 1, 1, 2, 3)))
        terms = {e: c for e, c in terms.items() if c}
    return MultiPoly(names, terms)


def random_pair(rng):
    """F, G in 1-3 variables of degree <= 6; two in five share a planted
    nonconstant factor."""
    names = NAMES[: rng.randint(1, 3)]
    if rng.random() < 0.4:
        H = random_poly(rng, names, rng.randint(1, 2), 3)
        while H.is_constant():
            H = random_poly(rng, names, 2, 3)
        room = 6 - H.total_degree()
        return (random_poly(rng, names, room, 4) * H,
                random_poly(rng, names, room, 4) * H)
    return (random_poly(rng, names, rng.randint(1, 6), 5),
            random_poly(rng, names, rng.randint(1, 6), 5))


def sympy_coprime(F, G):
    return sympy.gcd(to_sympy(F), to_sympy(G)).is_number


@pytest.mark.parametrize("ftext, gtext, coprime", [
    ("0", "x", False),
    ("0", "1", True),
    ("3", "0", True),
    ("x^2", "x", False),
    ("x^2 - y^2", "y + 1", True),
])
def test_coprime_edge_cases(ftext, gtext, coprime):
    F, G = parse_poly(ftext, ("x", "y")), parse_poly(gtext, ("x", "y"))
    assert sympy_coprime(F, G) == coprime
    assert are_coprime(F, G) == coprime


def test_coprime_matches_sympy_gcd():
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(COPRIME_PAIRS):
        F, G = random_pair(rng)
        expected = sympy_coprime(F, G)
        assert are_coprime(F, G) == expected, (str(F), str(G))
        outcomes[expected] += 1
    assert min(outcomes.values()) >= COPRIME_PAIRS // 5, outcomes


def sympy_radical_contains(gens, target):
    symbols = [sympy.Symbol(v) for v in target.variables]
    z = sympy.Symbol("z_")
    basis = sympy.groebner([to_sympy(g) for g in gens] + [1 - z * to_sympy(target)],
                           *symbols, z, order="grevlex")
    return basis.exprs == [1]


@pytest.mark.parametrize("gtexts, ttext, contained", [
    (("x",), "0", True),
    ((), "x", False),
    (("x^2*y",), "x*y", True),
    (("x^2", "y^3"), "x + y", True),
    (("x*y",), "x + y", False),
    (("0",), "1", False),
])
def test_radical_edge_cases(gtexts, ttext, contained):
    gens = [parse_poly(g, ("x", "y")) for g in gtexts]
    target = parse_poly(ttext, ("x", "y"))
    assert sympy_radical_contains(gens, target) == contained
    assert radical_contains(gens, target) == contained


def random_system(rng):
    """One to three generators in x, y and a nonzero target of degree <=
    2; in about a third of the systems a power of the target is planted in
    the ideal."""
    names = NAMES[:2]
    target = random_poly(rng, names, 2, 3)
    gens = [random_poly(rng, names, 3, 3) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.35:
        power = target ** rng.randint(1, 2)
        gens[0] = power + random_poly(rng, names, 1, 2) * gens[-1] if len(gens) > 1 else power
    return gens, target


def test_radical_contains_matches_sympy_groebner():
    rng = random.Random(20261018)
    outcomes = {True: 0, False: 0}
    for _ in range(RADICAL_SYSTEMS):
        gens, target = random_system(rng)
        expected = sympy_radical_contains(gens, target)
        assert radical_contains(gens, target) == expected, ([str(g) for g in gens], str(target))
        outcomes[expected] += 1
    assert min(outcomes.values()) >= RADICAL_SYSTEMS // 5, outcomes


def test_importing_the_cli_leaves_sympy_out():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mbfun.cli; print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"

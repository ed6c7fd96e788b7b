"""Coefficients stay exact: no true division outside rationals, no floats
in results.

Integral values from rationals are plain ints, and `int / int` is a
float, so every quotient in src/mbfun must go through rationals.div.  The
first check parses each module with ast and fails on any `/` or `/=`
outside rationals.py; the others check that rationals gives ints for
integral values, and that two cheap b_mero calls and a classical
b-function's witness report no coefficient of any other type than int or
Fraction.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from mbfun.annihilator import bernstein_sato
from mbfun.merobf import b_mero
from mbfun.multipoly import MultiPoly
from mbfun.oracle import verify_functional_equation
from mbfun.parser import parse_poly
from mbfun.rationals import Q, div

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mbfun"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rationals.py")


def true_divisions(tree):
    """Lines of the `/` and `/=` operators in a module."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_true_division_outside_rationals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = true_divisions(tree)
    assert not lines, f"{path.name}: '/' at lines {lines}; use rationals.div"


def test_integral_values_are_ints():
    assert type(Q(6, 3)) is int and type(Q(Fraction(4, 2))) is int
    assert type(div(6, 3)) is int and type(div(Fraction(1, 2), Fraction(1, 4))) is int
    assert div(1, 3) == Fraction(1, 3) and div(Fraction(2, 3), 2) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        div(1, 0)
    with pytest.raises(TypeError):
        Q(0.5)


def exact(value):
    return type(value) is int or type(value) is Fraction


@pytest.mark.parametrize(
    "F, G, m, names",
    [("x^2", "y", 1, ("x", "y")), ("x^3", "1", 0, ("x",))],
)
def test_b_mero_results_are_exact(F, G, m, names):
    res = b_mero(parse_poly(F, names), parse_poly(G, names), m)
    assert res.status == "CERTIFIED"
    for b in (res.b, res.engine_b):
        assert all(exact(c) for c in b.poly.terms.values())
        assert all(exact(r) for r in b.roots)
    coeffs = [c for P in res.witness.values() for c in P.terms.values()]
    assert coeffs and all(exact(c) for c in coeffs)


def test_classic_witness_is_exact():
    # the route of `bf classic x^2+y^3`: Buchberger elimination, then the
    # N=1 functional equation
    F = parse_poly("x^2+y^3")
    b = bernstein_sato(F)
    assert all(exact(c) for c in b.poly.terms.values())
    witness = verify_functional_equation(b, F, MultiPoly.const(F.variables, 1), 0, N=1)
    coeffs = [c for P in witness.values() for c in P.terms.values()]
    assert coeffs and all(exact(c) for c in coeffs)

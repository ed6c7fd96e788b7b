"""Annihilator construction, classical b-functions, Bernstein-Sato ideal line."""

import pytest

from mbfun.annihilator import ann_fs, bernstein_sato, sabbah_line
from mbfun.errors import NotSpecializableError
from mbfun.parser import parse_poly
from mbfun.rationals import Q
from mbfun.sections import MeroContext, apply_operator, base_section
from mbfun.weyl import WeylElement
from bfunction_helpers import divides


def one_like(F):
    from mbfun.multipoly import MultiPoly

    return MultiPoly.const(F.variables, 1)


@pytest.mark.parametrize("text", ["x", "x^2", "x*y", "x^2 + y^2", "x^2 + y^3"])
def test_ann_generators_kill_fs(text):
    F = parse_poly(text)
    ann = ann_fs([(F, "s")])
    assert ann.generators, "annihilator must not be empty"
    ctx = MeroContext(F, one_like(F))
    v = base_section(ctx, 0)
    for g in ann.generators:
        moved = WeylElement(
            ctx.sig,
            {tuple(e[ann.sig.index(n)] for n in ctx.sig.names): c for e, c in g.terms.items()},
        )
        assert apply_operator(moved, v).is_zero(), f"{g} does not annihilate f^s"


def test_ann_does_not_contain_f_itself():
    # x does NOT annihilate x^s; a correct annihilator never contains it
    F = parse_poly("x")
    ann = ann_fs([(F, "s")])
    ctx = MeroContext(F, one_like(F))
    x_op = WeylElement.gen(ctx.sig, "x")
    assert not apply_operator(x_op, base_section(ctx, 0)).is_zero()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x", {Q(-1): 1}),
        ("x^2", {Q(-1): 1, Q(-1, 2): 1}),
        ("x^3", {Q(-1): 1, Q(-2, 3): 1, Q(-1, 3): 1}),
        ("x*y", {Q(-1): 2}),
        ("x^2 + y^2", {Q(-1): 2}),
    ],
)
def test_classical_bfunction(text, expected):
    b = bernstein_sato(parse_poly(text))
    assert b.roots == expected


def test_classical_rejects_constants():
    with pytest.raises(ValueError):
        bernstein_sato(parse_poly("3", ("x",)))


def test_sabbah_line_separated_variables():
    res = sabbah_line(parse_poly("x", ("x", "y")), parse_poly("y", ("x", "y")), 0)
    assert str(res.b) == "(s + 1)^2"
    assert res.status == "CERTIFIED"
    assert res.witness is not None
    # the ideal element itself: (s1+1)(s2+1)
    assert str(res.bs_element) == "s1*s2 + s1 + s2 + 1"


def test_sabbah_line_is_multiple_of_mero_b():
    from mbfun.merobf import b_mero

    F, G = parse_poly("x^3", ("x", "y")), parse_poly("y^2", ("x", "y"))
    line = sabbah_line(F, G, 0)
    assert line.status == "CERTIFIED"
    mero = b_mero(F, G, 0)
    assert divides(mero.b, line.b)


def test_sabbah_requires_coprime_inputs():
    with pytest.raises(ValueError):
        sabbah_line(parse_poly("x"), parse_poly("x"), 0)


# Pins of the Buchberger side: the cli-classic items, a few classics, and
# twelve random F in x, y (1-3 terms, exponents <= 2, coefficients in
# {1, -1, 2}, drawn once with a fixed seed)
CLASSICAL_PINS = [
    ("x^2", "(s + 1)*(s + 1/2)"),
    ("x^2*y", "(s + 1)^2*(s + 1/2)"),
    ("x^2*y^3", "(s + 1)^2*(s + 2/3)*(s + 1/2)*(s + 1/3)"),
    ("x^2+y^3", "(s + 7/6)*(s + 1)*(s + 5/6)"),
    ("x^3+y^3", "(s + 4/3)*(s + 1)^2*(s + 2/3)"),
    ("x^2+y^4", "(s + 5/4)*(s + 1)^2*(s + 3/4)"),
    ("x^3+y^4", "(s + 17/12)*(s + 7/6)*(s + 13/12)*(s + 1)*(s + 11/12)*(s + 5/6)*(s + 7/12)"),
    ("x^2+y^2+z^2", "(s + 3/2)*(s + 1)"),
    ("x*y*(x+y)", "(s + 4/3)*(s + 1)^2*(s + 2/3)"),
    ("x^3+x*y", "(s + 1)^2"),
    ("x*y", "(s + 1)^2"),
    ("x^2+y^2", "(s + 1)^2"),
    ("x+y^2", "(s + 1)"),
    ("x^3", "(s + 1)*(s + 2/3)*(s + 1/3)"),
    ("2*x^2*y^2", "(s + 1)^2*(s + 1/2)^2"),
    ("-x^2*y + 2*x*y^2 + y", "(s + 1)^2"),
    ("-x*y^2 + x*y", "(s + 1)^2"),
    ("-x*y", "(s + 1)^2"),
    ("2*x^2*y^2 + x^2", "(s + 1)^2*(s + 1/2)"),
    ("-x^2*y + 2*x^2 + 1", "(s + 1)"),
    ("y", "(s + 1)"),
    ("x*y^2 + 2*y^2", "(s + 1)^2*(s + 1/2)"),
    ("2*x^2*y^2 - x^2*y + 2", "(s + 1)"),
    ("-x*y^2 + x + y", "(s + 1)"),
    ("y^2 - 1", "(s + 1)"),
    ("-x^2*y^2 + 2*x*y^2 + y", "(s + 1)"),
]


@pytest.mark.parametrize("text, want", CLASSICAL_PINS)
def test_classical_bfunction_pins(text, want):
    assert str(bernstein_sato(parse_poly(text))) == want


ANN_PINS = [
    ("x^2", ("x", "s"), ("dx",), ["x*dx - 2*s"]),
    ("x*y", ("x", "y", "s"), ("dx", "dy"), ["y*dy - s", "x*dx - s"]),
    (
        "x^2+y^3",
        ("x", "y", "s"),
        ("dx", "dy"),
        ["3*x*dx + 2*y*dy - 6*s", "3*y^2*dx - 2*x*dy", "y^3*dy - 3*y^2*s + x^2*dy"],
    ),
    (
        "x*y*(x+y)",
        ("x", "y", "s"),
        ("dx", "dy"),
        [
            "x*dx + y*dy - 3*s",
            "x*y*dy + y^2*dy - x*s - 2*y*s",
            "y^2*dx*dy - y^2*dy^2 - 2*y*s*dx + 4*y*s*dy - 3*s^2 - s",
        ],
    ),
    (
        "x+y^2",
        ("x", "y", "s"),
        ("dx", "dy"),
        ["2*y*dx - dy", "2*x*dx + y*dy - 2*s", "y^2*dy - 2*y*s + x*dy"],
    ),
]


@pytest.mark.parametrize("text, coords, derivs, want", ANN_PINS)
def test_ann_fs_pins(text, coords, derivs, want):
    ann = ann_fs([(parse_poly(text), "s")])
    pairs = tuple((i, len(coords) + i) for i in range(len(derivs)))
    assert (ann.sig.coords, ann.sig.derivs, ann.sig.pairs, ann.sig.homog) == (
        coords, derivs, pairs, None
    )
    assert [str(g) for g in ann.generators] == want


SABBAH_PINS = [
    ("x", "y", 0, "(s + 1)^2", "s1*s2 + s1 + s2 + 1", "-dx*dy"),
    (
        "x^2", "y", 0, "(s + 1)^2*(s + 1/2)",
        "2*s1^2*s2 + 2*s1^2 + 3*s1*s2 + 3*s1 + s2 + 1", "-1/4*dx^2*dy",
    ),
    ("x", "y", 1, "(s + 2)*(s + 1)", "s1*s2 + s1 + s2 + 1", "-dx*dy"),
    (
        "x^2", "y^2", 1, "(s + 5/2)*(s + 2)*(s + 1)*(s + 1/2)",
        "4*s1^2*s2^2 + 6*s1^2*s2 + 6*s1*s2^2 + 2*s1^2 + 9*s1*s2 + 2*s2^2 + 3*s1 + 3*s2 + 1",
        "1/16*dx^2*dy^2",
    ),
    ("x", "x+y", 0, "(s + 1)^2", "s1*s2 + s1 + s2 + 1", "-dx*dy + dy^2"),
]


@pytest.mark.parametrize("ftext, gtext, m, b, element, witness", SABBAH_PINS)
def test_sabbah_line_pins(ftext, gtext, m, b, element, witness):
    names = ("x", "y")
    res = sabbah_line(parse_poly(ftext, names), parse_poly(gtext, names), m)
    assert (str(res.b), str(res.bs_element), str(res.witness), res.status) == (
        b, element, witness, "CERTIFIED"
    )


@pytest.mark.parametrize(
    "run, cap",
    [
        # 144 and 44 calls with the earlier u, v construction, 106 and 22
        # with one d_t per factor
        (lambda: bernstein_sato(parse_poly("x*y*(x+y)")), 106),
        (lambda: sabbah_line(parse_poly("x", ("x", "y")), parse_poly("y", ("x", "y")), 0), 22),
    ],
    ids=["bernstein_sato x*y*(x+y)", "sabbah_line x y 0"],
)
def test_normal_form_calls(monkeypatch, run, cap):
    from mbfun import groebner

    calls, real = [], groebner.normal_form

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", counted)
    run()
    assert len(calls) <= cap

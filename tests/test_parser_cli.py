"""Expression parsing and the command-line front end."""

import argparse
import json
import random
import re
import time
from pathlib import Path

import jsonschema
import pytest

from mbfun import annihilator, merobf
from mbfun.cli import _parse_pair, main
from mbfun.commutative import MAX_COPRIME_PRODUCTS
from mbfun.multiplier import MAX_JUMPS
from mbfun.multipoly import MultiPoly
from mbfun.parser import (
    MAX_COEFFICIENT_BITS,
    MAX_POWER_DEGREE,
    MAX_TERM_PRODUCTS,
    PolySyntaxError,
    _power_products,
    _power_terms,
    parse_poly,
)
from mbfun.rationals import Q

CHART = str(Path(__file__).parent / "data" / "chart_x3_y2.json")

# (text, variables or None for those in the text, message, line, column)
SYNTAX_ERRORS = [
    ("x^(-1)", None, "negative exponents are not allowed", 1, 4),
    ("x^-2", None, "negative exponents are not allowed", 1, 3),
    ("x/y", None, "unexpected '/'", 1, 2),
    ("x +", None, "unexpected end of input", 1, 4),
    ("(x", None, "unexpected end of input", 1, 3),
    ("2x", None, "unexpected 'x'", 1, 2),
    ("", None, "empty expression", 1, 1),
    ("x^y", None, "exponent must be a nonnegative integer", 1, 3),
    ("x^(y)", None, "exponent must be a nonnegative integer", 1, 4),
    ("x^(2x", None, "expected ')'", 1, 5),
    ("1/x", None, "denominator must be an integer", 1, 3),
    ("1/0", None, "zero denominator", 1, 3),
    ("(x+1 2", None, "expected ')'", 1, 6),
    (")", None, "unexpected ')'", 1, 1),
    ("z", ("x",), "unknown variable 'z'", 1, 1),
    # a newline starts line 2 at column 1, here and inside blanks
    ("x+\ny*", None, "unexpected end of input", 2, 3),
    ("x +\n\n  y ^ ", None, "exponent must be a nonnegative integer", 3, 5),
]


class TestParser:
    def test_simple_sum(self):
        p = parse_poly("x^2 + y^2")
        assert p.terms == {(2, 0): Q(1), (0, 2): Q(1)}

    def test_rational_coefficient(self):
        assert parse_poly("3/2*x*y").terms == {(1, 1): Q(3, 2)}

    def test_precedence_and_parentheses(self):
        assert parse_poly("(x + 1)^2") == parse_poly("x^2 + 2*x + 1")
        assert parse_poly("2*x^3") != parse_poly("(2*x)^3")

    def test_unary_minus(self):
        assert parse_poly("-x + 1") == parse_poly("1 - x")

    @pytest.mark.parametrize(
        "text, variables, message, line, column",
        [pytest.param(*case, id=case[0]) for case in SYNTAX_ERRORS],
    )
    def test_syntax_errors(self, text, variables, message, line, column):
        with pytest.raises(PolySyntaxError) as info:
            parse_poly(text, variables)
        assert str(info.value) == f"in {text!r}: {message} (line {line}, column {column})"
        assert (info.value.line, info.value.column) == (line, column)

    def test_error_position(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_poly("x + $")
        assert info.value.line == 1 and info.value.column == 5

    @pytest.mark.parametrize("text, exponent, column", [
        ("x^4611686018427387904", 4611686018427387904, 3),
        ("x^(4611686018427387904)", 4611686018427387904, 4),
        # a power is refused before it is expanded
        ("(x+y)^4611686018427387904", 4611686018427387904, 7),
        ("(x^2*y)^2305843009213693952", 4611686018427387904, 9),
        # a product as it is formed, at its '*'
        ("x^4611686018427387903*y*x", 4611686018427387904, 24),
    ], ids=["power", "parenthesized", "power-of-sum", "power-of-product", "product"])
    def test_exponent_bound(self, text, exponent, column):
        with pytest.raises(PolySyntaxError, match=f"exponent {exponent} ") as info:
            parse_poly(text)
        assert info.value.column == column

    @pytest.mark.parametrize("text, bits, column", [
        ("2^100000000000", 100000000001, 3),
        ("(1/3)^9000", 9001, 7),
        # either end of a sum: (x+2)^n ends in 2^n
        ("(x+2)^9000", 9001, 7),
        ("(2*x+1)^9000", 9001, 9),
        # a product as it is formed, at its '*'
        (f"2^{MAX_COEFFICIENT_BITS - 1}*2*x", MAX_COEFFICIENT_BITS + 1, 7),
    ], ids=["constant", "fraction", "trailing", "leading", "product"])
    def test_coefficient_bound(self, text, bits, column):
        with pytest.raises(PolySyntaxError, match=f"coefficient of {bits} bits ") as info:
            parse_poly(text)
        assert info.value.column == column
        assert f"limit of {MAX_COEFFICIENT_BITS} bits" in str(info.value)

    @pytest.mark.parametrize("text, degree, column", [
        ("(x+y)^3000", 3000, 7),
        ("(x^2-1)^(501)", 1002, 10),
        # a power of a power: the inner one is within the limit
        ("((x+y)^30)^40", 1200, 12),
    ], ids=["sum", "parenthesized", "nested"])
    def test_power_degree_bound(self, text, degree, column):
        start = time.monotonic()
        with pytest.raises(PolySyntaxError) as info:
            parse_poly(text)
        assert time.monotonic() - start < 1.0
        assert f"power of total degree {degree} exceeds the limit of {MAX_POWER_DEGREE} " in str(
            info.value
        )
        assert info.value.column == column

    @pytest.mark.parametrize("text, count, column", [
        ("(x+y+z)^200", 27685905, 9),
        # 2 * 62516 to build the two powers and 1771^2 to multiply them
        ("(x+y+z+w)^20*(x+y+z+w)^20", 3261473, 13),
    ], ids=["power", "product"])
    def test_term_product_bound(self, capsys, text, count, column):
        message = f"expansions form {count} products of two terms up to here, past " \
            f"MAX_TERM_PRODUCTS = {MAX_TERM_PRODUCTS} "
        start = time.monotonic()
        with pytest.raises(PolySyntaxError) as info:
            parse_poly(text)
        assert time.monotonic() - start < 1.0
        assert message in str(info.value)
        assert info.value.column == column
        assert main(["bf", "classic", text]) == 2
        assert message in capsys.readouterr().err

    def test_term_products_below_the_bound(self):
        # predicted, not expanded: each of these parses, in 0.2 to 2.7 s
        names = ("x", "y", "z")
        for base, n in [("x+y+z", 60), ("x+y+z", 100), ("x+y+z+x*y", 40), ("x^10+y", 100)]:
            assert _power_products(parse_poly(base, names), n) <= MAX_TERM_PRODUCTS
        # (x+y+z)^50*(x+y+z)^50
        half = _power_products(parse_poly("x+y+z"), 50)
        assert 2 * half + len(parse_poly("(x+y+z)^50").terms) ** 2 <= MAX_TERM_PRODUCTS

    def test_term_products_add_up_over_the_parse(self, monkeypatch):
        # each product of (x+1)*(x+1)*... is small; the sum is capped
        monkeypatch.setattr("mbfun.parser.MAX_TERM_PRODUCTS", 100)
        assert len(parse_poly("*".join(["(x+1)"] * 9)).terms) == 10   # 4 + 6 + ... + 18 = 88
        with pytest.raises(PolySyntaxError, match="^in .*: expansions form 108 products of two "
                           "terms up to here, past MAX_TERM_PRODUCTS = 100 "):
            parse_poly("*".join(["(x+1)"] * 10))

    def test_power_term_bound(self):
        # _power_terms bounds the terms of every power, and is exact on
        # these sums
        rng = random.Random(20261020)
        for _ in range(300):
            n = rng.randint(1, 3)
            exps = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 4))}
            poly = MultiPoly(tuple("xyz"[:n]), {e: rng.choice([1, -1, 2]) for e in exps})
            for e in range(6):
                assert len((poly ** e).terms) <= _power_terms(poly, e), (poly, e)
        for text in ("x+y+z", "x+y+z+x*y", "x^2+x*y+y^2", "1+x+x^2+x^3", "x^10+y"):
            poly = parse_poly(text)
            assert all(len((poly ** e).terms) == _power_terms(poly, e) for e in range(8))

    def test_exponents_below_the_bound_parse(self):
        assert parse_poly("x^4611686018427387903").terms == {(2**62 - 1,): 1}
        # the bound is on each variable's exponent, not on the total degree
        assert parse_poly(f"x^{2**61}*y^{2**61}").terms == {(2**61, 2**61): 1}
        # and a coefficient may have MAX_COEFFICIENT_BITS bits
        bits = MAX_COEFFICIENT_BITS
        assert parse_poly(f"2^{bits - 1}*x").terms == {(1,): 2 ** (bits - 1)}
        # and a power of a sum may reach total degree MAX_POWER_DEGREE
        assert parse_poly("(x^10+y)^100").total_degree() == MAX_POWER_DEGREE

    @pytest.mark.parametrize(
        "text", ["x^3 - 2*x + 1", "1/2*x*y - y^2", "x", "7/3", "x*y*z - z^2"]
    )
    def test_print_parse_round_trip(self, text):
        p = parse_poly(text)
        assert parse_poly(str(p), p.variables) == p


@pytest.fixture()
def schema():
    import importlib.resources as res

    with res.files("mbfun").joinpath("schemas/report.schema.json").open() as fh:
        return json.load(fh)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestCLI:
    def test_classic_report(self, capsys, schema):
        rc, out = run_json(capsys, ["bf", "classic", "x^2", "--json"])
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["status"] == "CERTIFIED"
        assert [r for r, _ in report["result"]["roots"]] == ["-1/1", "-1/2"]

    @pytest.mark.parametrize(
        "argv, roots",
        [
            (["x^3+y^3"], ["-4/3", "-1/1", "-2/3"]),
            (["x^2+y^4"], ["-5/4", "-1/1", "-3/4"]),
            (["x^3+y^4", "--certify-deg", "7"],
             ["-17/12", "-7/6", "-13/12", "-1/1", "-11/12", "-5/6", "-7/12"]),
        ],
    )
    def test_classic_certifies_brieskorn_pham(self, capsys, argv, roots):
        rc, out = run_json(capsys, ["bf", "classic", *argv, "--json"])
        assert rc == 0
        report = json.loads(out)
        assert report["status"] == "CERTIFIED"
        assert [r for r, _ in report["result"]["roots"]] == roots

    @pytest.mark.parametrize(
        "argv, note",
        [
            (["classic", "x^2", "--certify-deg", "1"],
             "oracle found no witness with N=1 and operator degree <= 1; raise --certify-deg"),
            (["mero", "x^2", "1", "--certify", "1,1"],
             "oracle found no witness within bounds N=1, deg=1"),
        ],
    )
    def test_uncertified_names_the_bounds(self, capsys, schema, argv, note):
        rc, out = run_json(capsys, ["bf", *argv, "--json"])
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["status"] == "UNCERTIFIED"
        assert report["notes"] == [note]

    def test_mero_separated_variables(self, capsys, schema):
        rc, out = run_json(capsys, ["bf", "mero", "x", "y", "--m", "0", "--json"])
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["result"]["b"] == "(s + 1)"

    def test_inputs_echo_reparses(self, capsys):
        rc, out = run_json(capsys, ["bf", "mero", "x^2+ 1*x^2", "y", "--json"])
        assert rc == 0
        report = json.loads(out)
        echoed = report["inputs"]["F"]
        assert parse_poly(echoed, ("x", "y")) == parse_poly("2*x^2", ("x", "y"))

    def test_nc_roots_from_chart_file(self, tmp_path, capsys, schema):
        path = tmp_path / "charts.json"
        path.write_text(
            '{"charts":[{"label":"q","a":[3,0],"b":[0,2],"kappa":[0,0]}]}'
        )
        rc, out = run_json(
            capsys, ["nc", "roots", "--charts", str(path), "--m", "0", "--json"]
        )
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["result"]["roots"]["q"] == ["-1/1", "-2/3", "-1/3"]

    def test_jump_report(self, tmp_path, capsys, schema):
        path = tmp_path / "charts.json"
        path.write_text('{"charts":[{"label":"q","a":[2],"b":[0],"kappa":[0]}]}')
        rc, out = run_json(
            capsys, ["jump", "nc", "--charts", str(path), "--upper", "1", "--json"]
        )
        assert rc == 0
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["result"] == {
            "jumps": ["1/2", "1/1"],
            "lct": "1/2",
            "ideals": [{"generators": [[1]]}, {"generators": [[2]]}],
        }

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_thm41_with_kappa_charts(self, tmp_path, capsys, m):
        # (x^2+y^3)/x on the cusp's minimal log resolution: the strict
        # transform of F and the three exceptional divisors, as (a, b, kappa)
        path = tmp_path / "charts.json"
        entries = [(1, 0, 0), (2, 1, 1), (3, 2, 2), (6, 3, 4)]
        path.write_text(json.dumps({"charts": [
            {"label": f"E{i}", "a": [a], "b": [b], "kappa": [k]}
            for i, (a, b, k) in enumerate(entries, 1)
        ]}))
        argv = ["check", "thm41", "x^2+y^3", "x", "--m", str(m), "--charts", str(path), "--json"]
        rc, out = run_json(capsys, argv)
        report = json.loads(out)
        assert rc == 0 and report["status"] == "CERTIFIED"
        assert report["result"]["holds"] and report["result"]["misses"] == []

    @pytest.mark.parametrize("a", ['"30"', "[3.7, 0]", "[true, 0]"],
                             ids=["string", "float", "bool"])
    def test_chart_multiplicities_must_be_integers(self, tmp_path, capsys, a):
        # int() would read these as (3, 0), (3, 0) and (1, 0)
        path = tmp_path / "charts.json"
        path.write_text('{"charts":[{"label":"q","a":%s,"b":[0,2],"kappa":[0,0]}]}' % a)
        assert main(["nc", "roots", "--charts", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "chart q: 'a' must be a JSON array of integers" in err

    def test_jumps_refuse_kappa(self, tmp_path, capsys):
        # jumping numbers cover only the identity chart, where kappa = 0
        path = tmp_path / "charts.json"
        path.write_text('{"charts":[{"label":"E4","a":[6],"b":[3],"kappa":[4]}]}')
        assert main(["jump", "nc", "--charts", str(path), "--json"]) == 2
        assert "kappa" in capsys.readouterr().err
        assert main(["check", "corjump", "x^2+y^3", "x", "--charts", str(path)]) == 2
        assert "kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["jump", "nc"], ["check", "corjump", "x^3", "y^2"]])
    def test_jumps_refuse_two_charts(self, tmp_path, capsys, argv):
        # jumping numbers read one identity chart; a second is refused,
        # not ignored
        path = tmp_path / "charts.json"
        path.write_text(
            '{"charts":[{"label":"p","a":[3,0],"b":[0,2],"kappa":[0,0]},'
            '{"label":"q","a":[2,0],"b":[0,1],"kappa":[0,0]}]}'
        )
        assert main(argv + ["--charts", str(path), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "single identity-resolution chart" in err

    @pytest.mark.parametrize("command, a, b", [
        ("corjump", [2], [0]),          # the identity chart needs one coordinate per variable
        ("corjump", [3, 0, 1], [0, 2, 0]),
        ("thm41", [3, 0, 1], [0, 2, 0]),  # no chart has more coordinates than variables
    ])
    def test_charts_must_fit_the_pair(self, tmp_path, capsys, monkeypatch, command, a, b):
        def no_b_mero(*args, **kwargs):
            raise AssertionError("b_mero ran on a chart that does not fit")

        monkeypatch.setattr("mbfun.cli.b_mero", no_b_mero)
        path = tmp_path / "charts.json"
        path.write_text(json.dumps(
            {"charts": [{"label": "q", "a": a, "b": b, "kappa": [0] * len(a)}]}
        ))
        assert main(["check", command, "x^3", "y^2", "--charts", str(path), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"has {len(a)} coordinates but the pair has 2 variables" in err

    def test_corjump_size_cap_comes_before_the_jumps(self, tmp_path, capsys):
        # the chart derived from x^100000, y has 10^10 jumps at the default
        # --upper; the engine's size cap refuses the pair before any is listed
        start = time.monotonic()
        assert main(["check", "corjump", "x^100000", "y"]) == 1
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err == (
            "capability failure: input beyond supported size (n <= 3, degree <= 8)\n"
        )
        # a chart that does not fit the pair still exits 2 first
        path = tmp_path / "charts.json"
        path.write_text('{"charts":[{"label":"q","a":[2],"b":[0],"kappa":[0]}]}')
        assert main(["check", "corjump", "x^100000", "y", "--charts", str(path)]) == 2
        assert "has 1 coordinates but the pair has 2 variables" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["jump", "nc"], ["check", "corjump", "x^3", "y^2"]])
    def test_jump_list_is_capped(self, tmp_path, capsys, argv):
        # the chart x^100000/y fits the pair x^3, y^2 and has about 10^10
        # jump levels at the default --upper; none is listed
        path = tmp_path / "charts.json"
        path.write_text('{"charts":[{"label":"q","a":[100000,0],"b":[0,1],"kappa":[0,0]}]}')
        start = time.monotonic()
        assert main(argv + ["--charts", str(path), "--json"]) == 2
        assert time.monotonic() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: 10000200000 jump levels k/c at or below the upper bound, past "
            f"MAX_JUMPS = {MAX_JUMPS}; lower --upper\n"
        )

    def test_pair_shares_sorted_variables(self, capsys):
        # a constant F takes G's variables, not the parser's placeholder x
        argv = ["bf", "reduced", "2", "y", "--weights", "1", "--d1", "0", "--d2", "1", "--json"]
        rc, out = run_json(capsys, argv)
        assert rc == 0 and json.loads(out)["inputs"]["weights"] == ["1/1"]
        # both polynomials live over the sorted names of the pair
        F, G = _parse_pair(argparse.Namespace(F="y", G="x"))
        assert F.variables == G.variables == ("x", "y")
        F, G = _parse_pair(argparse.Namespace(F="3", G="1/2"))
        assert F.variables == G.variables == ("x",)

    def test_usage_error_exit_code(self, capsys):
        assert main(["bf", "classic", "x^(-1)"]) == 2
        assert main(["nc", "roots", "--charts", "/no/such/file.json"]) == 2
        # a variable named like a derivation collides with an internal generator
        assert main(["bf", "mero", "x*dx+x", "dx"]) == 2
        assert main(["bf", "classic", "x*dx"]) == 2
        assert "'dx' occurs twice" in capsys.readouterr().err
        # 'ddx' is d + 'dx': its derivation 'dddx' would read as a third dx
        assert main(["bf", "classic", "x^2+ddx"]) == 2
        assert "'ddx'" in capsys.readouterr().err
        # an exponent past the supported range, as written or as a product
        # makes it, and a constant past its bit limit, each refused at once
        for text, size in [
            ("x^4611686018427387904", "4611686018427387904"),
            ("(x+y)^4611686018427387904", "4611686018427387904"),
            ("x^4611686018427387903*x^4611686018427387903", "9223372036854775806"),
            ("2^100000000000", "100000000001"),
            ("(x+y)^3000", "3000"),
        ]:
            for argv in (["bf", "classic", text], ["bf", "mero", text, "y"]):
                start = time.monotonic()
                assert main(argv) == 2
                assert time.monotonic() - start < 1.0
                err = capsys.readouterr().err
                assert err.startswith("error:") and size in err and "Traceback" not in err
        # a parse error names the text it is in, F's or G's
        for argv, text in [(["bf", "mero", "x$", "y"], "x$"), (["bf", "mero", "x", "y$"], "y$")]:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: in {text!r}: unexpected character '$' (line 1, column 2)\n"
            )

    @pytest.mark.parametrize("argv", [
        ["bf", "simple", "x^4611686018427387903", "y"],
        ["bf", "reduced", "x^4611686018427387903", "y", "--weights", "1,1", "--d1", "2", "--d2", "1"],
        ["bf", "sabbah-line", "x^4611686018427387903", "y"],
    ], ids=["simple", "reduced", "sabbah-line"])
    def test_coprimality_system_is_bounded(self, capsys, argv):
        # C(2, 2) + C(2^62, 2) products for degrees 1 and 2^62 - 1 in two
        # variables, refused before any is built
        start = time.monotonic()
        assert main(argv) == 1
        assert time.monotonic() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "capability failure: coprimality test needs "
            f"{1 + (2**62 - 1) * 2**61} products, above the limit of {MAX_COPRIME_PRODUCTS}\n"
        )

    @pytest.mark.parametrize("var, code", [("t1", 2), ("dt1", 2), ("u1", 0), ("v1", 0)])
    def test_reserved_annihilator_names(self, capsys, var, code):
        # the derivation of t1 would be the annihilator's internal dt1, so
        # the signature refuses both; u1 and v1 are ordinary names
        assert main(["bf", "classic", f"{var}^2"]) == code
        err = capsys.readouterr().err
        collides = "generator name 'dt1' occurs twice" in err
        assert collides == (code == 2)

    def test_capability_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("MBFUN_MAX_DEGREE", "2")
        assert main(["bf", "classic", "x^2"]) == 1
        assert "MBFUN_MAX_DEGREE" in capsys.readouterr().err

    def test_sabbah_line_refuses_a_vanishing_element(self, capsys, monkeypatch):
        monkeypatch.setattr(
            annihilator, "_specialize_line", lambda p, m: MultiPoly.zero(("s",))
        )
        assert main(["bf", "sabbah-line", "x", "y"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "capability failure: every computed Bernstein-Sato ideal element vanishes "
            "on the line s2 = -s-0-2; a different ideal element is required\n"
        )

    @pytest.mark.parametrize("argv", [
        ["bf", "classic", "x^2"],
        ["bf", "simple", "x", "y"],
        ["bf", "reduced", "x^2", "y", "--weights", "1,1", "--d1", "2", "--d2", "1"],
        ["bf", "sabbah-line", "x", "y"],
    ], ids=["classic", "simple", "reduced", "sabbah-line"])
    def test_t_is_an_ordinary_name_outside_the_graph(self, capsys, argv):
        # only the engine of bf mero puts t in its algebra, so elsewhere a
        # variable t gives the report of x, renamed
        def x_to_t(value):
            if isinstance(value, str):
                return re.sub(r"\b(d?)x\b", r"\1t", value)
            if isinstance(value, list):
                return [x_to_t(v) for v in value]
            if isinstance(value, dict):
                return {x_to_t(k): x_to_t(v) for k, v in value.items()}
            return value

        assert main(argv + ["--json"]) == 0
        want = x_to_t(json.loads(capsys.readouterr().out))
        assert main(x_to_t(argv) + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == want
        assert want["result"]["witness"] is not None

    @pytest.mark.parametrize("argv, name", [
        (["bf", "mero", "t", "y"], "t"),
        (["check", "thm41", "t^3", "y^2"], "t"),
        (["bf", "mero", "s", "y"], "s"),
        (["check", "corjump", "s^3", "y^2"], "s"),
    ], ids=["mero-t", "thm41-t", "mero-s", "corjump-s"])
    def test_signature_refuses_internal_names(self, capsys, monkeypatch, argv, name):
        # the engine's algebra holds t and dt, the oracle's s; both
        # signatures are made before the engine runs
        calls = []
        monkeypatch.setattr(merobf, "b_section_along_t", lambda *args: calls.append(args))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and calls == []
        assert err.startswith(f"error: generator name {name!r} occurs twice")

    @pytest.mark.parametrize("value", ["abc", "", "-1"])
    def test_bad_degree_cap_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MBFUN_MAX_DEGREE", value)
        assert main(["bf", "classic", "x^2"]) == 2
        err = capsys.readouterr().err
        assert "MBFUN_MAX_DEGREE" in err and f"{value!r}" in err
        assert "Traceback" not in err

    def test_json_runs_are_byte_identical(self, capsys):
        _, first = run_json(capsys, ["bf", "classic", "x^2", "--json"])
        _, second = run_json(capsys, ["bf", "classic", "x^2", "--json"])
        assert first == second

    def test_human_output_has_timing_but_json_does_not(self, capsys):
        rc, out = run_json(capsys, ["bf", "classic", "x", "--json"])
        assert "time" not in json.loads(out)
        rc = main(["bf", "classic", "x"])
        human = capsys.readouterr().out
        assert "time" in human
        # a note is a line of its own, after the result and before the time
        assert main(["bf", "classic", "x^3+y^4"]) == 0
        *_, note, timing = capsys.readouterr().out.splitlines()
        assert note == (
            "note    : oracle found no witness with N=1 and operator degree <= 6; "
            "raise --certify-deg"
        )
        assert timing.startswith("time    : ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bf", "mero", "x", "y", "--m", "-1"],
        ["check", "lemma4", "x", "y", "--m1", "-1", "--m2", "0"],
        ["check", "thm41", "x", "y", "--m", "-1"],
        ["bf", "simple", "x", "y", "--m", "-1"],
        ["bf", "sabbah-line", "x", "y", "--m", "-1"],
        ["bf", "mero", "x", "y", "--certify", "2,-1"],
        ["bf", "mero", "x", "y", "--certify", "0,3"],
        ["bf", "classic", "x", "--certify-deg", "0"],
        ["check", "lemma4", "x", "y", "--m1", "0", "--m2", "1", "--lcap", "-1"],
        # F or G zero, or F and G with a common factor
        ["bf", "reduced", "x*y", "0", "--weights", "1,1", "--d1", "2", "--d2", "0"],
        ["bf", "reduced", "x*y", "x", "--weights", "1,1", "--d1", "2", "--d2", "1"],
        ["bf", "simple", "0", "1"],
        ["bf", "reduced", "0", "x", "--weights", "1", "--d1", "0", "--d2", "1"],
        # a zero denominator in a rational flag
        ["jump", "nc", "--charts", CHART, "--upper", "1/0"],
        ["check", "corjump", "x^3", "y^2", "--upper", "1/0"],
        ["bf", "reduced", "x^2", "y", "--weights", "1,1", "--d1", "1/0", "--d2", "1"],
        ["bf", "reduced", "x^2", "y", "--weights", "1,1", "--d1", "2", "--d2", "1/0"],
        ["bf", "reduced", "x^2", "y", "--weights", "1/0,1", "--d1", "2", "--d2", "1"],
    ],
)
def test_bad_orders_and_bounds_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    from mbfun import cli

    real, built = cli.build_arg_parser, []

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_arg_parser", counted)
    cli._parser.cache_clear()
    argvs = [["bf", "classic", "x^2", "--json"], ["bf", "mero", "x", "y"], ["bf", "bogus"]]
    assert [main(argv) for argv in argvs] == [0, 0, 2]
    assert len(built) == 1
    capsys.readouterr()
    cli._parser.cache_clear()

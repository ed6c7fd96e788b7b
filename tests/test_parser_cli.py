"""Expression parsing and the command-line front end."""

import argparse
import json
from pathlib import Path

import jsonschema
import pytest

from mbfun.cli import _parse_pair, main
from mbfun.parser import PolySyntaxError, parse_poly
from mbfun.rationals import Q

CHART = str(Path(__file__).parent / "data" / "chart_x3_y2.json")


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
        "text", ["x^(-1)", "x^-2", "x/y", "x +", "(x", "2x", "", "x^y"]
    )
    def test_syntax_errors(self, text):
        with pytest.raises((PolySyntaxError, ValueError)):
            parse_poly(text)

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

    def test_exponents_below_the_bound_parse(self):
        assert parse_poly("x^4611686018427387903").terms == {(2**62 - 1,): 1}
        # the bound is on each variable's exponent, not on the total degree
        assert parse_poly(f"x^{2**61}*y^{2**61}").terms == {(2**61, 2**61): 1}

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
        # an exponent past the supported range, as written or as a product makes it
        for text, exponent in [
            ("x^4611686018427387904", "4611686018427387904"),
            ("(x+y)^4611686018427387904", "4611686018427387904"),
            ("x^4611686018427387903*x^4611686018427387903", "9223372036854775806"),
        ]:
            for argv in (["bf", "classic", text], ["bf", "mero", text, "y"]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert err.startswith("error:") and exponent in err and "Traceback" not in err
        # a parse error names the text it is in, F's or G's
        for argv, text in [(["bf", "mero", "x$", "y"], "x$"), (["bf", "mero", "x", "y$"], "y$")]:
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: in {text!r}: unexpected character '$' (line 1, column 2)\n"
            )

    @pytest.mark.parametrize("var, code", [("t1", 2), ("dt1", 2), ("u1", 0), ("v1", 0)])
    def test_reserved_annihilator_names(self, capsys, var, code):
        # the derivation of t1 would be the annihilator's internal dt1;
        # u1 and v1 are ordinary names
        assert main(["bf", "classic", f"{var}^2"]) == code
        err = capsys.readouterr().err
        collides = "input variables collide with reserved internal names" in err
        assert collides == (code == 2)

    def test_capability_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("MBFUN_MAX_DEGREE", "2")
        assert main(["bf", "classic", "x^2"]) == 1
        assert "MBFUN_MAX_DEGREE" in capsys.readouterr().err

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

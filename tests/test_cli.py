import json

import pytest

from nabch import magnus
from nabch.cli import main
from nabch.suops import GX, PrimCombo


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_monomial_text(capsys):
    code, out, _ = run(capsys, "expand", "--degree", "2", "--basis", "monomial")
    assert code == 0
    assert out.strip() == "x + y + 1/2 (xy) - 1/2 (yx)"


def test_expand_primitive_json(capsys):
    code, out, _ = run(capsys, "expand", "--degree", "3", "--basis", "primitive", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["version"] == "1"
    assert env["command"] == "expand"
    assert env["parameters"]["degree"] == 3
    coeffs = {t["expr"]: t["coeff"] for t in env["result"]["primitive"]}
    assert coeffs["<x; x,y>"] == "-1/3"
    assert coeffs["Phi(x; y,y)"] == "-1/2"


def test_expand_both_reports_agreement(capsys):
    code, out, _ = run(capsys, "expand", "--degree", "4", "--basis", "both", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["bases_agree"] is True


def test_expand_latex(capsys):
    code, out, _ = run(capsys, "expand", "--degree", "2", "--basis", "monomial", "--format", "latex")
    assert code == 0
    assert "\\frac{1}{2}" in out and "xy" in out


def test_formats_carry_identical_rationals(capsys):
    _, text, _ = run(capsys, "coeff", "--monomial", "(x(xy))")
    _, js, _ = run(capsys, "coeff", "--monomial", "(x(xy))", "--format", "json")
    assert text.strip() == "-1/4"
    assert json.loads(js)["result"]["value"] == "-1/4"


def test_determinism(capsys):
    _, out1, _ = run(capsys, "expand", "--degree", "4", "--basis", "both", "--format", "json")
    _, out2, _ = run(capsys, "expand", "--degree", "4", "--basis", "both", "--format", "json")
    assert out1 == out2


def test_coeff_golden(capsys):
    code, out, _ = run(capsys, "coeff", "--monomial", "((xy)(xy))", "--method", "both")
    assert code == 0
    assert "cuts: -5/24" in out
    assert "series: -5/24" in out
    assert "match: true" in out
    code, out, _ = run(capsys, "coeff", "--monomial", "x")
    assert code == 0 and out.strip() == "1"


def test_coeff_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "coeff", "--monomial", "(x")
    assert code == 2
    assert "position" in err


def test_degree_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "expand", "--degree", "9")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("BCH_MAX_DEGREE", "3")
    code, _, err = run(capsys, "expand", "--degree", "4")
    assert code == 2
    # the flag overrides the environment cap
    code, _, _ = run(capsys, "expand", "--degree", "4", "--max-degree", "4")
    assert code == 0
    monkeypatch.setenv("BCH_MAX_DEGREE", "not-a-number")
    code, _, err = run(capsys, "expand", "--degree", "2")
    assert code == 2 and "integer" in err


def test_primitive_route_cap(capsys, monkeypatch):
    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, "expand", "--degree", "9", "--basis", "primitive")
    assert code == 2 and out == ""
    assert "cap 8 of the primitive route" in err and "at degree 9" in err
    # evaluating every term for the comparison keeps --basis both lower
    code, out, err = run(capsys, "expand", "--degree", "8", "--basis", "both")
    assert code == 2 and out == ""
    assert "cap 7 of expand --basis both" in err and "at degree 8" in err
    # the monomial route keeps its own cap
    code, _, err = run(capsys, "expand", "--degree", "9", "--basis", "monomial")
    assert code == 2 and "cap 8" in err and "primitive" not in err


def test_primitive_route_cap_yields_to_explicit_caps(capsys, monkeypatch):
    # a stub route, so that the accepted degree costs nothing
    monkeypatch.setattr(magnus, "bch_ode", lambda n: PrimCombo.single(GX))
    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    primitive = ("expand", "--basis", "primitive")
    code, out, _ = run(capsys, *primitive, "--degree", "9", "--max-degree", "9")
    assert code == 0 and out.strip() == "degree 1: x"
    code, _, err = run(capsys, *primitive, "--degree", "5", "--max-degree", "4")
    assert code == 2 and "cap 4" in err
    monkeypatch.setenv("BCH_MAX_DEGREE", "9")
    code, _, _ = run(capsys, *primitive, "--degree", "9")
    assert code == 0
    monkeypatch.setenv("BCH_MAX_DEGREE", "4")
    code, _, err = run(capsys, *primitive, "--degree", "5")
    assert code == 2 and "cap 4" in err


def test_expand_both_degree_6_agrees(capsys, monkeypatch):
    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    code, out, _ = run(capsys, "expand", "--degree", "6", "--basis", "both", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["bases_agree"] is True


def test_check_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "cuts", "--degree", "4")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_check_all_json(capsys):
    code, out, _ = run(capsys, "check", "--suite", "all", "--degree", "3", "--format", "json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["passed"] is True
    assert all(c["passed"] for c in env["result"]["checks"])


@pytest.mark.parametrize("method", ["woon", "fuchs", "nj", "recurrence"])
def test_bernoulli_methods_agree(capsys, method):
    code, out, _ = run(capsys, "bernoulli", "--k", "2", "--method", method)
    assert code == 0
    assert out.strip() == "1/12"


def test_bernoulli_woon_needs_k2(capsys):
    code, _, err = run(capsys, "bernoulli", "--k", "1", "--method", "woon")
    assert code == 2


def test_nj(capsys):
    code, out, _ = run(capsys, "nj", "--tuple", "2,1")
    assert code == 0 and out.strip() == "1/24"
    code, _, _ = run(capsys, "nj", "--tuple", "0,1")
    assert code == 2


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "--n", "2")
    assert code == 0
    assert out.strip() == "1/3 <x; x,y> + 1/6 [[y,x],x]"


def test_log_targets(capsys):
    code, out, _ = run(capsys, "log", "--series", "exp_l", "--degree", "4")
    assert code == 0 and out.strip() == "x"
    code, out, _ = run(capsys, "log", "--series", "1+x", "--degree", "3")
    assert code == 0
    assert "- 1/2 (xx)" in out
    code, out, _ = run(capsys, "log", "--series", "product", "--degree", "2", "--format", "json")
    env = json.loads(out)
    terms = {json.dumps(t["monomial"]): t["coeff"] for t in env["result"]["terms"]}
    assert terms['["x", "y"]'] == "1/2"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--basis", "nope"])
    assert exc.value.code == 2


def test_cut_route_cap(capsys, monkeypatch):
    from nabch.cuts import closed_form_xmyn, xmyn_monomial
    from nabch.magma import format_monomial

    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    code, out, _ = run(capsys, "coeff", "--monomial", format_monomial(xmyn_monomial(16, 16)))
    assert code == 0 and out.strip() == str(closed_form_xmyn(16, 16))
    code, out, err = run(capsys, "coeff", "--monomial", format_monomial(xmyn_monomial(17, 16)))
    assert code == 2 and out == ""
    assert "cap 32 of the cut route" in err
    # the series and both methods expand the series, and keep the cap of 8
    nine = format_monomial(xmyn_monomial(5, 4))
    for method in ("both", "series"):
        code, out, err = run(capsys, "coeff", "--monomial", nine, "--method", method)
        assert code == 2 and out == "" and "cap 8" in err and "cut route" not in err


def test_cut_route_cap_yields_to_explicit_caps(capsys, monkeypatch):
    from nabch.cuts import closed_form_xmyn, xmyn_monomial
    from nabch.magma import format_monomial

    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    w33 = format_monomial(xmyn_monomial(17, 16))
    code, out, _ = run(capsys, "coeff", "--monomial", w33, "--max-degree", "33")
    assert code == 0 and out.strip() == str(closed_form_xmyn(17, 16))
    monkeypatch.setenv("BCH_MAX_DEGREE", "33")
    code, _, _ = run(capsys, "coeff", "--monomial", w33)
    assert code == 0
    monkeypatch.setenv("BCH_MAX_DEGREE", "4")
    code, _, err = run(capsys, "coeff", "--monomial", "((xx)((yy)y))")
    assert code == 2 and "cap 4" in err


def _nested(depth, side):
    text = "x"
    for _ in range(depth):
        text = f"({text}x)" if side == "left" else f"(y{text})"
    return text


@pytest.mark.parametrize("side", ["left", "right"])
def test_coeff_nesting_bound(capsys, monkeypatch, side):
    from fractions import Fraction

    from nabch.cli import MAX_NESTING

    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    code, out, _ = run(capsys, "coeff", "--monomial", _nested(MAX_NESTING, side), "--max-degree", "5000")
    assert code == 0 and isinstance(Fraction(out.strip()), Fraction)
    for depth in (600, 1200):
        code, out, err = run(capsys, "coeff", "--monomial", _nested(depth, side), "--max-degree", "5000")
        assert code == 2 and out == ""
        assert f"nested {depth} deep" in err and f"bound {MAX_NESTING}" in err


@pytest.mark.parametrize("method", ["woon", "fuchs", "nj"])
def test_bernoulli_cap(capsys, monkeypatch, method):
    from fractions import Fraction

    from nabch import trees

    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    code, out, err = run(capsys, "bernoulli", "--k", "17", "--method", method)
    assert code == 2 and out == "" and "cap 16 of the 2^k Bernoulli methods" in err
    # past the cap the routes themselves are stubbed: k = 17 takes seconds
    for name in ("woon_level_sum", "fuchs_level_sum", "nj_tree_sum"):
        monkeypatch.setattr(trees, name, lambda *args: Fraction(1))
    code, out, _ = run(capsys, "bernoulli", "--k", "17", "--method", method, "--max-degree", "17")
    assert code == 0 and out.strip() == "1"
    monkeypatch.setenv("BCH_MAX_DEGREE", "17")
    code, _, _ = run(capsys, "bernoulli", "--k", "17", "--method", method)
    assert code == 0
    monkeypatch.setenv("BCH_MAX_DEGREE", "4")
    code, _, err = run(capsys, "bernoulli", "--k", "5", "--method", method)
    assert code == 2 and "cap 4" in err


def test_bernoulli_recurrence_is_uncapped(capsys, monkeypatch):
    from math import factorial

    from nabch.series import bernoulli

    monkeypatch.setenv("BCH_MAX_DEGREE", "4")
    code, out, _ = run(capsys, "bernoulli", "--k", "40")
    assert code == 0 and out.strip() == str(bernoulli(40) / factorial(40))


def test_bernoulli_recurrence_bound(capsys, monkeypatch):
    from fractions import Fraction
    from math import factorial

    from nabch import cli

    # B_k itself is stubbed: at the bound the recurrence takes seconds
    monkeypatch.setattr(cli, "bernoulli", lambda k: Fraction(1))
    over = str(cli.MAX_RECURRENCE_K + 1)
    for caps in ((), ("--max-degree", "5000")):
        code, out, err = run(capsys, "bernoulli", "--k", over, *caps)
        assert code == 2 and out == ""
        assert f"k = {over} exceeds the bound {cli.MAX_RECURRENCE_K}" in err and "2 s" in err
    monkeypatch.setenv("BCH_MAX_DEGREE", "5000")
    code, _, _ = run(capsys, "bernoulli", "--k", over)
    assert code == 2
    code, out, _ = run(capsys, "bernoulli", "--k", str(cli.MAX_RECURRENCE_K))
    assert code == 0 and out.strip() == str(Fraction(1, factorial(cli.MAX_RECURRENCE_K)))


def test_nj_cap(capsys, monkeypatch):
    from fractions import Fraction

    from nabch.cli import NJ_CAP

    monkeypatch.delenv("BCH_MAX_DEGREE", raising=False)
    over = ",".join(["1"] * (NJ_CAP + 1))
    for tup in (over, str(NJ_CAP + 1), f"{NJ_CAP},1"):
        code, out, err = run(capsys, "nj", "--tuple", tup)
        assert code == 2 and out == ""
        assert f"degree {NJ_CAP + 1} exceeds the cap {NJ_CAP} of nj" in err and "2 s" in err
    # past the cap n_J itself is stubbed: the all-ones tuple costs O(s^2) products
    monkeypatch.setattr(magnus, "n_coeff", lambda j: Fraction(len(j)))
    code, out, _ = run(capsys, "nj", "--tuple", ",".join(["1"] * NJ_CAP))
    assert code == 0 and out.strip() == str(NJ_CAP)
    code, out, _ = run(capsys, "nj", "--tuple", over, "--max-degree", str(NJ_CAP + 1))
    assert code == 0 and out.strip() == str(NJ_CAP + 1)
    monkeypatch.setenv("BCH_MAX_DEGREE", str(NJ_CAP + 1))
    code, _, _ = run(capsys, "nj", "--tuple", over)
    assert code == 0
    monkeypatch.setenv("BCH_MAX_DEGREE", "4")
    code, _, err = run(capsys, "nj", "--tuple", "3,2")
    assert code == 2 and "cap 4" in err
    code, _, _ = run(capsys, "nj", "--tuple", "3,2", "--max-degree", "5")
    assert code == 0

"""The output checks count a corrupted output as a failed operation."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

import workloads
from nabch import cli


def _run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


def _corrupt_first(terms: list) -> None:
    terms[0]["coeff"] = str(Fraction(terms[0]["coeff"]) + Fraction(1, 7))


def test_monomial_series_check_at_degree_4():
    env = json.loads(_run_cli(["expand", "--degree", "4", "--format", "json"])["stdout"])
    series = env["result"]["monomial"]
    assert workloads.check_monomial_series(series, 4) == []
    _corrupt_first(series["terms"])
    assert workloads.check_monomial_series(series, 4)


@pytest.fixture(scope="module")
def expand_both():
    wl = workloads.WORKLOADS["expand-both"]
    req = wl.request(1)
    return wl, req, _run_cli(req["argv"])


def test_expand_both_passes(expand_both):
    wl, req, sample = expand_both
    assert wl.check(req, sample, None) == (0, [])


@pytest.mark.parametrize("part", ["monomial", "primitive"])
def test_expand_both_corrupted_coefficient_fails(expand_both, part):
    wl, req, sample = expand_both
    env = json.loads(sample["stdout"])
    terms = env["result"]["monomial"]["terms"] if part == "monomial" else env["result"]["primitive"]
    _corrupt_first(terms)
    failed, problems = wl.check(req, dict(sample, stdout=json.dumps(env)), None)
    assert failed == 1 and problems


def test_nonzero_exit_fails(expand_both):
    wl, req, sample = expand_both
    assert wl.check(req, dict(sample, rc=1), None)[0] == 1


def test_check_all_result_checks():
    wl = workloads.WORKLOADS["check-all"]
    rows = [{"name": n, "passed": True} for n in workloads.EXPECTED_CHECKS]
    result = {"checks": rows, "passed": True}

    def sample(res):
        env = {"version": "1", "command": "check", "parameters": {}, "result": res}
        return {"rc": 0, "stdout": json.dumps(env)}

    assert wl.check({}, sample(result), None) == (0, [])
    rows[3] = dict(rows[3], passed=False)
    assert wl.check({}, sample(result), None)[0] == 1
    assert wl.check({}, sample({"checks": rows[4:], "passed": True}), None)[0] == 1


def test_coeff_sweep_corrupted_answer_fails_one_query():
    wl = workloads.WORKLOADS["coeff-sweep"]
    req = wl.request(5)
    reference = wl.reference(req)
    answers = [str(reference.get(t, 0)) for t in req["monomials"]]
    assert wl.check(req, {"rc": 0, "answers": answers}, reference) == (0, [])
    answers[100] = str(Fraction(answers[100]) + 1)
    failed, problems = wl.check(req, {"rc": 0, "answers": answers}, reference)
    assert failed == 1 and problems
    assert wl.check(req, {"rc": 1}, reference)[0] == len(req["monomials"])


def test_coeff_sweep_order_follows_seed():
    wl = workloads.WORKLOADS["coeff-sweep"]
    assert wl.request(3) == wl.request(3)
    assert wl.request(3) != wl.request(4)
    assert sorted(wl.request(3)["monomials"]) == sorted(wl.request(4)["monomials"])

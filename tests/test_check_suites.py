"""The identity sweeps of nabch.checks fail on broken code, and a failing
sweep names the first case that breaks it."""

from types import MappingProxyType

import pytest

from nabch import checks, dsw, hopf
from nabch.magma import mirror
from nabch.series import Series
from nabch.suops import _add_bracket

LEFT = hopf.left_divide_monomial
RIGHT = hopf.right_divide_monomial


def _row(results, name):
    (row,) = [r for r in results if r.name == name]
    return row


def _left_with_a_spurious_term(u, v):
    """u \\ v plus the product vu, once u has degree 2 or more."""
    q = dict(LEFT(u, v))
    if u is not None and u.degree >= 2:
        t = hopf._graft(v, u)
        q[t] = q.get(t, 0) + 1
    return MappingProxyType(q)


def _right_left_unmirrored(v, u):
    """mirror(u) \\ mirror(v), without mirroring the quotient back."""
    if u is None:
        return RIGHT(v, u)
    return LEFT(mirror(u), None if v is None else mirror(v))


@pytest.mark.parametrize(
    "attr, wrong",
    [
        ("left_divide_monomial", _left_with_a_spurious_term),
        ("right_divide_monomial", _right_left_unmirrored),
    ],
)
def test_division_identities_fail_on_a_wrong_monomial_division(monkeypatch, attr, wrong):
    monkeypatch.setattr(hopf, attr, wrong)
    row = _row(checks.check_hopf(4), "division identities")
    assert not row.passed
    assert row.detail.startswith("u=")  # the monomial sweep catches it


def test_division_identities_fail_when_right_divide_drops_the_constant(monkeypatch):
    right_divide = hopf.right_divide

    def without_constant(v, u):
        q = right_divide(v, u)
        return Series(q.truncation, q.terms)

    monkeypatch.setattr(hopf, "right_divide", without_constant)
    row = _row(checks.check_hopf(4), "division identities")
    assert not row.passed
    assert row.detail.startswith("U=")  # only the series-level half can see it


def test_division_identities_name_the_first_failing_case(monkeypatch):
    monkeypatch.setattr(hopf, "left_divide_monomial", _left_with_a_spurious_term)
    row = _row(checks.check_hopf(4), "division identities")
    assert row.detail == "u=(xx) v=x"


def _doubled_bracket(out, u, y, z, n, scale=1):
    return _add_bracket(out, u, y, z, n, 2 * scale)


def test_bracket_recursion_names_the_first_failing_case(monkeypatch):
    monkeypatch.setattr(checks, "_add_bracket", _doubled_bracket)
    row = _row(checks.check_suops(3), "bracket recursion identity (three letters)")
    assert not row.passed
    assert row.detail == "word=x y=x z=y"


def test_dsw_recursion_names_the_first_failing_case(monkeypatch):
    monkeypatch.setattr(dsw, "_add_bracket", _doubled_bracket)
    row = _row(checks.check_dsw(4), "Dynkin-Specht-Wever recursion")
    assert not row.passed
    assert row.detail == "u=x a=x (y d/dx)"


def test_cut_formula_names_the_first_failing_monomial(monkeypatch):
    coefficient_via_cuts = checks.coefficient_via_cuts
    monkeypatch.setattr(
        checks, "coefficient_via_cuts", lambda m: coefficient_via_cuts(m) + (m.degree == 2)
    )
    row = _row(checks.check_cuts(3), "cut formula matches series coefficients")
    assert not row.passed
    assert row.detail == "(xx)"

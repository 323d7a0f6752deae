from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from nabch.checks import check_cuts
from nabch.cuts import (
    _spine_sum,
    bch_series,
    c_tau,
    closed_form_xmyn,
    coefficient_via_cuts,
    enumerate_bch_cuts,
    enumerate_cuts,
    xiyj_shape,
    xmyn_monomial,
)
from nabch.magma import enumerate_monomials, leaf, left_normed_power, node, parse
from nabch.magnus import bch_monomial
from nabch.series import Series

X = leaf("x")
Y = leaf("y")


# -- enumeration


def test_cuts_of_a_leaf():
    cuts = enumerate_cuts(X)
    assert len(cuts) == 1
    assert cuts[0].branches == (X,)


def test_cuts_of_xy():
    cuts = enumerate_cuts(parse("(xy)"))
    assert len(cuts) == 2
    branch_sets = {c.branches for c in cuts}
    assert (parse("(xy)"),) in branch_sets
    assert (X, Y) in branch_sets


def test_cuts_of_xxy():
    assert len(enumerate_cuts(parse("((xx)y)"))) == 3


def test_cut_grafting_recovers_monomial():
    for deg in range(1, 6):
        for m in enumerate_monomials(deg):
            for cut in enumerate_cuts(m):
                assert cut.graft() == m
                (a0, b0) = cut.positions()[0]
                assert a0 == 1
                assert cut.positions()[-1][1] == deg


def test_positions_partition_leaf_range():
    m = parse("((xx)(yy))")
    for cut in enumerate_cuts(m):
        spans = cut.positions()
        flat = [i for a, b in spans for i in range(a, b + 1)]
        assert flat == list(range(1, m.degree + 1))


def test_branch_intervals_nested_or_disjoint():
    for deg in range(1, 7):
        for m in enumerate_monomials(deg):
            intervals = [p for cut in enumerate_cuts(m) for p in cut.positions()]
            for a1, b1 in intervals:
                for a2, b2 in intervals:
                    if a1 <= b2 and a2 <= b1:  # overlapping
                        assert (a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)


# -- BCH-cut shape


def test_xiyj_shape():
    assert xiyj_shape(X) == (1, 0)
    assert xiyj_shape(left_normed_power("y", 3)) == (0, 3)
    assert xiyj_shape(parse("(xy)")) == (1, 1)
    assert xiyj_shape(xmyn_monomial(2, 1)) == (2, 1)
    assert xiyj_shape(parse("(x(xy))")) is None
    assert xiyj_shape(parse("(yx)")) is None
    assert xiyj_shape(parse("(x(yy))")) == (1, 2)


def _xiyj_by_powers(m):
    """The shape test written with the powers themselves, as an oracle."""
    i, j = m.xdeg, m.ydeg
    if i + j != m.degree:
        return None
    if j == 0:
        return (i, 0) if m == left_normed_power("x", i) else None
    if i == 0:
        return (0, j) if m == left_normed_power("y", j) else None
    if m.left == left_normed_power("x", i) and m.right == left_normed_power("y", j):
        return (i, j)
    return None


def test_xiyj_shape_matches_powers_through_degree_8():
    for deg in range(1, 9):
        for m in enumerate_monomials(deg):
            assert xiyj_shape(m) == _xiyj_by_powers(m), m
    for deg in range(1, 5):
        for m in enumerate_monomials(deg, ("x", "y", "z")):
            assert xiyj_shape(m) == _xiyj_by_powers(m), m


def test_xmyn_monomial_convention():
    assert xmyn_monomial(2, 1) == parse("((xx)y)")
    assert xmyn_monomial(1, 2) == parse("(x(yy))")


def test_bch_cuts_tables():
    # table rows
    cuts = enumerate_bch_cuts(parse("(x(xy))"))
    assert {c.branches for c in cuts} == {(X, parse("(xy)")), (X, X, Y)}
    cuts = enumerate_bch_cuts(parse("(x(yx))"))
    assert {c.branches for c in cuts} == {(X, Y, X)}
    cuts = enumerate_bch_cuts(parse("((xy)x)"))
    assert {c.branches for c in cuts} == {(parse("(xy)"), X), (X, Y, X)}
    cuts = enumerate_bch_cuts(parse("((xx)y)"))
    assert {c.branches for c in cuts} == {
        (parse("((xx)y)"),),
        (parse("(xx)"), Y),
        (X, X, Y),
    }


@pytest.mark.parametrize("i", range(1, 5))
@pytest.mark.parametrize("j", range(1, 5))
def test_bch_cut_count_ij_plus_1(i, j):
    assert len(enumerate_bch_cuts(xmyn_monomial(i, j))) == i * j + 1


@pytest.mark.parametrize("i", range(1, 7))
def test_bch_cut_count_pure_powers(i):
    assert len(enumerate_bch_cuts(left_normed_power("x", i))) == i
    assert len(enumerate_bch_cuts(left_normed_power("y", i))) == i


# -- skeleton coefficients


def test_c_tau_values():
    assert c_tau(X) == 1
    assert c_tau(parse("(xx)")) == F(-1, 2)
    assert c_tau(parse("((xx)x)")) == F(1, 12)
    assert c_tau(parse("(x(xx))")) == F(1, 4)


# -- the coefficient formula


def test_coefficient_examples():
    assert coefficient_via_cuts(parse("(x(xy))")) == F(-1, 4)
    assert coefficient_via_cuts(parse("((xx)y)")) == F(1, 3)
    assert coefficient_via_cuts(parse("((xy)(xy))")) == F(-5, 24)
    assert coefficient_via_cuts(X) == 1


@pytest.mark.parametrize("deg", range(1, 7))
def test_cut_formula_matches_series(deg):
    b = bch_monomial(6)
    for m in enumerate_monomials(deg):
        assert coefficient_via_cuts(m) == b.coefficient(m), m


def test_closed_form_values():
    assert closed_form_xmyn(1, 1) == F(1, 2)
    assert closed_form_xmyn(2, 1) == F(1, 3)
    assert closed_form_xmyn(1, 2) == F(1, 2)
    with pytest.raises(ValueError):
        closed_form_xmyn(0, 1)


def test_closed_form_matches_cuts():
    for m in range(1, 7):
        for n in range(1, 7):
            if m + n > 7:
                continue
            assert closed_form_xmyn(m, n) == coefficient_via_cuts(xmyn_monomial(m, n)), (m, n)


# -- the left-spine recurrence against the cut enumeration


def _cut_sum(w):
    """The cut formula itself: c_tau / prod(i! j!) summed over the listed
    BCH-cuts of w.  A branch outside the x^i y^j shapes (one containing z,
    say) keeps its cut out of the list, so it weighs 0."""
    total = F(0)
    for cut in enumerate_bch_cuts(w):
        denom = 1
        for b in cut.branches:
            i, j = xiyj_shape(b)
            denom *= factorial(i) * factorial(j)
        total += c_tau(cut.skeleton) / denom
    return total


def test_recurrence_matches_enumeration_through_degree_7():
    for deg in range(1, 8):
        for m in enumerate_monomials(deg):
            assert coefficient_via_cuts(m) == _cut_sum(m), m


def test_recurrence_matches_enumeration_with_z_through_degree_4():
    for deg in range(1, 5):
        for m in enumerate_monomials(deg, ("x", "y", "z")):
            got = coefficient_via_cuts(m)
            assert got == _cut_sum(m), m
            if "z" in m.vars:  # every cut has a branch containing z
                assert got == 0, m


@st.composite
def _monomials_of_degree(draw, degree):
    if degree == 1:
        return leaf(draw(st.sampled_from(["x", "y"])))
    k = draw(st.integers(1, degree - 1))
    return node(draw(_monomials_of_degree(k)), draw(_monomials_of_degree(degree - k)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(_monomials_of_degree))
def test_recurrence_matches_enumeration_on_random_monomials(w):
    assert coefficient_via_cuts(w) == _cut_sum(w)


def test_closed_form_matches_recurrence_from_degree_8_to_24():
    # test_closed_form_matches_cuts covers m + n <= 7
    for m in range(1, 24):
        for n in range(max(1, 8 - m), 25 - m):
            assert closed_form_xmyn(m, n) == coefficient_via_cuts(xmyn_monomial(m, n)), (m, n)


# -- the whole series by the lifted recurrence


@pytest.mark.parametrize("n", range(1, 9))
def test_bch_series_equals_route_1(n):
    assert bch_series(n) == bch_monomial(n)


def test_bch_series_coefficients_are_the_cut_coefficients():
    s = bch_series(6)
    for d in range(1, 7):
        for m in enumerate_monomials(d):
            assert s.coefficient(m) == coefficient_via_cuts(m), m


def test_bch_series_refuses_degree_0():
    with pytest.raises(ValueError):
        bch_series(0)


def test_bch_series_terms_are_read_only():
    with pytest.raises(TypeError):
        bch_series(3).terms[X] = 5


def test_check_cuts_names_the_degree_where_the_series_differ(monkeypatch):
    wrong = bch_series(4) + Series.monomial(parse("((xy)x)"), 4)
    monkeypatch.setattr("nabch.checks.bch_series", lambda n: wrong)
    row = check_cuts(4)[0]
    assert row.name == "cut formula matches series coefficients"
    assert not row.passed
    assert row.detail == "bch_series differs at degree 3"


# -- deep monomials


def _right_nested(letters, inner):
    """l1(l2(...(lk inner))) over the monomials ``letters``."""
    for m in reversed(letters):
        inner = node(m, inner)
    return inner


def test_a_right_nest_of_depth_5000_stays_under_the_recursion_limit():
    # every y(...) factor multiplies by B_1 = -1/2; a plain recursion would
    # go one level per factor, past the default limit of 1000
    w = _right_nested([Y] * 5000, X)
    assert coefficient_via_cuts(w) == F(-1, 2) ** 5000


def _plain(w):
    """The left-spine recurrence as a plain recursion, without the memo."""
    return _spine_sum(w, _plain)


def test_deep_monomials_match_the_plain_recursion():
    xy = parse("(xy)")
    chain = _right_nested([xy, Y, parse("((xx)y)")] * 30, X)  # degree 181
    other = _right_nested([Y, xy] * 40, Y)  # degree 121
    cases = [chain, other, node(node(X, chain), other), node(chain, other)]
    for w in cases:
        assert coefficient_via_cuts.__wrapped__(w) == _plain(w)
    assert all(coefficient_via_cuts(w) for w in cases[:3])

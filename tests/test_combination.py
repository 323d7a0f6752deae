"""The laws every sparse rational combination obeys, checked once for each of
the four classes, the rule that combinations of different classes do not
mix, and the coefficient rule: ints and Fractions are kept as given, anything
else becomes a Fraction."""

import copy
import itertools
import pickle
from fractions import Fraction as F

import pytest

from nabch.cuts import bch_series, coefficient_via_cuts
from nabch.hopf import TensorSeries, coproduct
from nabch.magma import enumerate_monomials, leaf, parse
from nabch.magnus import bch_monomial, bch_ode, tau_components
from nabch.series import AssocSeries, Series, dynkin_bch, log_l_series, project_associative
from nabch.suops import GX, GY, Commutator, PrimCombo, SUBracket, eval_prim, su_bracket_expr

X = leaf("x")
XY = parse("(xy)")


def _series():
    a = Series(3, {X: 1, XY: F(-1, 2)}, 2)
    b = Series(3, {XY: F(1, 2), parse("(x(xy))"): 3}, -1)
    return a, b


def _assoc():
    a, b = _series()
    return project_associative(a), project_associative(b)


def _tensor():
    return coproduct(Series.generator("x", 3)), coproduct(_series()[1])


def _prim():
    a = PrimCombo({Commutator(GX, GY): F(1, 2), su_bracket_expr([GX], GX, GY): F(-1, 3)})
    b = PrimCombo({Commutator(GX, GY): F(-1, 2), GY: 4})
    return a, b


# (instances, the unit of the product or None, repr of the first instance)
CASES = {
    "Series": (_series, Series.one(3), "2 + x - 1/2 (xy)"),
    "AssocSeries": (_assoc, AssocSeries(3, constant=1), "2 + x - 1/2 xy"),
    "TensorSeries": (_tensor, TensorSeries(3, {(None, None): 1}), "1(x)x + x(x)1"),
    "PrimCombo": (_prim, None, "1/2 [x,y] - 1/3 <x; x,y>"),
}


@pytest.mark.parametrize("name", CASES)
def test_shared_laws(name):
    make, unit, _ = CASES[name]
    a, b = make()
    assert a + b == b + a
    assert (a - a).is_zero()
    assert -a == (-1) * a
    assert 2 * (a + b) == 2 * a + 2 * b
    with pytest.raises(TypeError):
        a.terms[next(iter(a.terms))] = 1
    if unit is not None:
        assert unit * a == a == a * unit


@pytest.mark.parametrize("name", CASES)
def test_fields_are_read_only(name):
    a = CASES[name][0]()[0]
    before = (a.truncation, a.constant, dict(a.terms))
    for field in ("truncation", "constant", "terms"):
        with pytest.raises(AttributeError):
            setattr(a, field, 7)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert (a.truncation, a.constant, dict(a.terms)) == before


def test_a_cached_series_refuses_edits():
    s = bch_series(3)
    with pytest.raises(AttributeError):
        s.constant = 7
    with pytest.raises(AttributeError):
        del s.terms
    assert bch_series(3) is s
    assert s.constant == 0 and s == bch_monomial(3)


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("clone", [_pickled, copy.copy, copy.deepcopy])
@pytest.mark.parametrize("name", CASES)
def test_copies_and_pickles_are_equal(name, clone):
    for a in CASES[name][0]():
        b = clone(a)
        assert type(b) is type(a) and b == a


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, want = CASES[name]
    assert repr(make()[0]) == want


@pytest.mark.parametrize("left, right", itertools.permutations(CASES, 2))
def test_different_classes_do_not_mix(left, right):
    a = CASES[left][0]()[0]
    b = CASES[right][0]()[0]
    assert a.__eq__(b) is NotImplemented
    assert a != b
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(TypeError):
            op()



def _coefficients(*combos):
    return [c for s in combos for c in (s.constant, *s.terms.values())]


def test_integral_results_stay_ints():
    x, y = Series.generator("x", 5), Series.generator("y", 5)
    exprs = (
        Commutator(GX, GY),
        SUBracket((GX,), GX, GY),
        SUBracket((GX, GY), GY, Commutator(GX, GY)),
    )
    combos = [x, coproduct(x * (y * x) - 3 * (x * y)), *(eval_prim(e, 5) for e in exprs)]
    assert {type(c) for c in _coefficients(*combos)} == {int}


def test_no_float_reaches_an_output():
    n = 5
    combos = [bch_monomial(n), bch_ode(n), bch_ode(n).evaluate(n), *tau_components(n)]
    coeffs = _coefficients(*combos, log_l_series(n), dynkin_bch(n)) + [
        coefficient_via_cuts(m) for d in range(1, n + 1) for m in enumerate_monomials(d)
    ]
    assert {type(c) for c in coeffs} <= {int, F}


def test_other_numbers_become_fractions():
    x = Series.generator("x", 2)
    for s in (Series(2, {X: 0.5}), x * 0.5, 0.5 * x, Series(2, {X: "1/2"})):
        assert type(s.terms[X]) is F and s.terms[X] == F(1, 2)
    assert type(Series(2, constant=0.5).constant) is F

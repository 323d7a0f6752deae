"""The laws every sparse rational combination obeys, checked once for each of
the four classes, and the rule that combinations of different classes do not
mix."""

import itertools
from fractions import Fraction as F

import pytest

from nabch.hopf import TensorSeries, coproduct
from nabch.magma import leaf, parse
from nabch.series import AssocSeries, Series, project_associative
from nabch.suops import GX, GY, Commutator, PrimCombo, su_bracket_expr

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


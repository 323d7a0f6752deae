import random
from fractions import Fraction as F

import pytest

from nabch.hopf import (
    TensorSeries,
    coproduct,
    coproduct_monomial,
    counit,
    is_grouplike,
    is_primitive,
    left_divide,
    left_divide_monomial,
    right_divide,
    right_divide_monomial,
)
from nabch.magma import enumerate_monomials, leaf, mirror, parse
from nabch.series import Series, exp_l, exp_r
from nabch.magnus import bch_monomial

X = leaf("x")
Y = leaf("y")


def random_series(rng, max_deg, truncation):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, max_deg)
        ms = enumerate_monomials(d)
        terms[ms[rng.randrange(len(ms))]] = F(rng.randint(-3, 3), rng.randint(1, 3))
    return Series(truncation, terms, F(rng.randint(-1, 1)))


# -- coproduct


def test_coproduct_generator():
    d = coproduct(Series.generator("x", 3))
    assert d.terms == {(X, None): F(1), (None, X): F(1)}


def test_coproduct_product_example():
    xy = parse("(xy)")
    d = coproduct(Series.monomial(xy, 3))
    assert d.terms == {
        (xy, None): F(1),
        (None, xy): F(1),
        (X, Y): F(1),
        (Y, X): F(1),
    }


def test_coproduct_unit():
    assert coproduct(Series.one(2)).terms == {(None, None): F(1)}


def test_coproduct_of_the_unit_key_is_one_tensor_one():
    assert coproduct_monomial(None) == {(None, None): 1}


def test_coproduct_square_has_multiplicity():
    xx = parse("(xx)")
    assert coproduct_monomial(xx)[(X, X)] == 2


def _triple(s, left_first):
    out = {}
    for (a, b), c in coproduct(s).terms.items():
        target = a if left_first else b
        inner = {(None, None): 1} if target is None else coproduct_monomial(target)
        for (p, q), k in inner.items():
            key = (p, q, b) if left_first else (a, p, q)
            out[key] = out.get(key, F(0)) + c * k
    return {k: v for k, v in out.items() if v}


def test_coassociativity_and_cocommutativity():
    rng = random.Random(11)
    for _ in range(10):
        s = random_series(rng, 4, 4)
        d = coproduct(s).terms
        assert d == {(b, a): c for (a, b), c in d.items()}
        assert _triple(s, True) == _triple(s, False)


def test_counit_laws_exhaustive():
    for deg in range(1, 6):
        for m in enumerate_monomials(deg):
            cp = coproduct_monomial(m)
            assert {b: c for (a, b), c in cp.items() if a is None} == {m: 1}
            assert {a: c for (a, b), c in cp.items() if b is None} == {m: 1}


def test_coproduct_is_algebra_morphism():
    rng = random.Random(12)
    for _ in range(8):
        s = random_series(rng, 2, 4)
        t = random_series(rng, 2, 4)
        assert coproduct(s * t) == coproduct(s) * coproduct(t)


def test_counit():
    s = Series(3, {X: F(3), parse("(xy)"): F(1)}, constant=1)
    assert counit(s) == 1
    assert counit(exp_l("x", 4)) == 1
    assert counit(bch_monomial(3)) == 0


# -- divisions


def test_division_base_cases():
    y = Series.generator("y", 3)
    one = Series.one(3)
    assert left_divide(one, y) == y
    x = Series.generator("x", 3)
    assert left_divide(x, y) == Series(3, {parse("(xy)"): F(-1)})
    assert right_divide(y, one) == y
    assert right_divide(y, x) == Series(3, {parse("(yx)"): F(-1)})


def test_division_homogeneity():
    d = left_divide_monomial(parse("(xy)"), X)
    assert all(t.degree == 3 for t in d)


@pytest.mark.parametrize("du", range(1, 6))
def test_division_identities_all_four(du):
    n = du + 2
    for u in enumerate_monomials(du):
        cp = coproduct_monomial(u)
        for dv in range(1, 3):
            for v in enumerate_monomials(dv):
                vs = Series.monomial(v, n)
                s1 = s2 = s3 = s4 = Series.zero(n)
                for (a, b), c in cp.items():
                    sa = Series.one(n) if a is None else Series.monomial(a, n)
                    sb = Series.one(n) if b is None else Series.monomial(b, n)
                    s1 = s1 + c * left_divide(sa, sb * vs)
                    s2 = s2 + c * (sa * left_divide(sb, vs))
                    s3 = s3 + c * right_divide(vs * sa, sb)
                    s4 = s4 + c * (right_divide(vs, sa) * sb)
                # eps(u) = 0 for every monomial u
                assert s1.is_zero() and s2.is_zero() and s3.is_zero() and s4.is_zero()


def _mirrored(s):
    return Series(s.truncation, {mirror(m): c for m, c in s.terms.items()}, s.constant)


def test_right_division_is_left_division_of_the_opposite_magma_on_monomials():
    n = 8
    units_and_monomials = [Series.one(n)] + [
        Series.monomial(m, n) for d in range(1, 5) for m in enumerate_monomials(d)
    ]
    for us in units_and_monomials:
        mu = _mirrored(us)
        for vs in units_and_monomials:
            want = _mirrored(left_divide(mu, _mirrored(vs)))
            assert right_divide(vs, us) == want, (vs, us)


def test_right_division_is_left_division_of_the_opposite_magma_on_series():
    rng = random.Random(16)
    for _ in range(6):
        u = random_series(rng, 3, 5)
        v = random_series(rng, 3, 5)
        assert right_divide(v, u) == _mirrored(left_divide(_mirrored(u), _mirrored(v)))


def test_right_division_of_monomials_is_read_only():
    with pytest.raises(TypeError):
        right_divide_monomial(parse("(xy)"), X)[Y] = 1
    with pytest.raises(TypeError):
        right_divide_monomial(Y, None)[Y] = 2


def test_division_identity_on_grouplike():
    # sum U_(1) \ (U_(2) V) = eps(U) V = V for group-like U
    for n in range(2, 6):
        u = exp_l("x", n)
        v = Series.generator("y", n) + Series.monomial(parse("(yx)"), n, F(1, 2))
        acc = Series.zero(n)
        for (a, b), c in coproduct(u).terms.items():
            sa = Series.one(n) if a is None else Series.monomial(a, n)
            sb = Series.one(n) if b is None else Series.monomial(b, n)
            acc = acc + c * left_divide(sa, sb * v)
        assert acc == v


# -- predicates


def test_is_primitive():
    n = 3
    assert is_primitive(Series.generator("x", n) + Series.generator("y", n))
    assert not is_primitive(Series.monomial(parse("(xy)"), n))
    assert is_primitive(bch_monomial(5))


def test_is_grouplike():
    assert is_grouplike(exp_l("x", 5))
    assert is_grouplike(exp_r("x", 5))
    assert not is_grouplike(Series.one(2) + Series.generator("x", 2))
    assert is_grouplike(exp_l("x", 5) * exp_l("y", 5))
    assert is_grouplike(exp_l("x", 5) * exp_r("y", 5))


def test_commutator_of_primitives_is_primitive():
    x = Series.generator("x", 4)
    y = Series.generator("y", 4)
    assert is_primitive(x * y - y * x)


# -- tensor series plumbing


def test_tensor_truncates_total_degree():
    t = TensorSeries(2, {(parse("(xx)"), X): F(1), (X, X): F(1)})
    assert (parse("(xx)"), X) not in t.terms
    assert (X, X) in t.terms

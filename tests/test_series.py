import random
from fractions import Fraction as F
from math import lcm

import pytest

from nabch.magma import enumerate_monomials, leaf, left_normed_power, parse
from nabch.series import (
    Series,
    _coefficients,
    _numerators,
    TruncationMismatchWarning,
    b_tau,
    bernoulli,
    dynkin_bch,
    exp_l,
    exp_r,
    log_l,
    log_l_series,
    project_associative,
    series_from_json,
    series_to_json,
    substitute,
    tau_factorial,
)
from nabch.hopf import is_grouplike
from nabch.magnus import bch_monomial

X = leaf("x")
Y = leaf("y")


def akiyama_tanigawa(n):
    # independent Bernoulli oracle (yields the B_1 = +1/2 convention;
    # flip the odd entry to compare)
    a = [F(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out = [(-b if i == 1 else b) for i, b in enumerate(out)]
    return out


def random_series(rng, max_deg, truncation):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(1, max_deg)
        ms = enumerate_monomials(d)
        terms[ms[rng.randrange(len(ms))]] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return Series(truncation, terms, F(rng.randint(-1, 1)))


# -- Bernoulli numbers


def test_bernoulli_convention_and_oracle():
    want = akiyama_tanigawa(12)
    assert [bernoulli(k) for k in range(13)] == want
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert all(bernoulli(2 * k + 1) == 0 for k in range(1, 6))


# -- ring operations


def test_mul_examples():
    x = Series.generator("x", 3)
    y = Series.generator("y", 3)
    assert (x * y).terms == {parse("(xy)"): F(1)}
    one_plus_x = Series.one(3) + x
    sq = one_plus_x * one_plus_x
    assert sq.constant == 1
    assert sq.coefficient(X) == 2
    assert sq.coefficient(parse("(xx)")) == 1


def test_non_associativity_is_representable():
    x = Series.generator("x", 3)
    y = Series.generator("y", 3)
    left = (x * y) * x
    right = x * (y * x)
    assert left.terms == {parse("((xy)x)"): F(1)}
    assert right.terms == {parse("(x(yx))"): F(1)}
    assert left != right


def test_coefficient_rejects_beyond_truncation():
    s = Series.generator("x", 2)
    with pytest.raises(ValueError):
        s.coefficient(left_normed_power("x", 3))


def test_truncation_mismatch_warns_and_takes_min():
    a = Series.generator("x", 3)
    b = Series.generator("y", 5)
    with pytest.warns(TruncationMismatchWarning):
        c = a * b
    assert c.truncation == 3


def test_grading_of_mul():
    rng = random.Random(1)
    for _ in range(20):
        s = random_series(rng, 3, 5)
        t = random_series(rng, 3, 5)
        p = s * t
        for m, c in p.terms.items():
            acc = s.constant * t.coefficient(m) + t.constant * s.coefficient(m)
            for d in range(1, m.degree):
                sh = s.homogeneous(d)
                th = t.homogeneous(m.degree - d)
                acc += (sh * th).coefficient(m)
            assert acc == c


def test_truncation_coherence():
    rng = random.Random(2)
    for n in range(3, 7):
        for m in range(1, n):
            s = random_series(rng, 2, n)
            t = random_series(rng, 2, n)
            assert (s * t).truncate(m) == (s.truncate(m) * t.truncate(m))


# -- exponentials


def test_exp_l_definition():
    e = exp_l("x", 3)
    assert e.constant == 1
    assert e.coefficient(X) == 1
    assert e.coefficient(parse("(xx)")) == F(1, 2)
    assert e.coefficient(parse("((xx)x)")) == F(1, 6)
    assert exp_l("x", 5).coefficient(left_normed_power("x", 3)) == F(1, 6)


def test_exp_r_definition():
    e = exp_r("x", 3)
    assert e.coefficient(parse("(x(xx))")) == F(1, 6)
    assert e.coefficient(parse("((xx)x)")) == 0


def test_exp_l_is_grouplike():
    assert is_grouplike(exp_l("x", 5))
    assert is_grouplike(exp_r("x", 5))


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        exp_l(Series.one(3), 3)


# -- tree factorials and the logarithm coefficients


def test_tau_factorial_and_b_tau():
    assert b_tau(X) == 1 and tau_factorial(X) == 1
    m = parse("((xx)x)")  # x^2 x
    assert b_tau(m) == F(1, 6) and tau_factorial(m) == 2
    assert b_tau(m) / tau_factorial(m) == F(1, 12)
    m = parse("(x(xx))")  # x x^2
    assert b_tau(m) == F(1, 4) and tau_factorial(m) == 1


def test_b_tau_rejects_mixed_variables():
    with pytest.raises(ValueError):
        b_tau(parse("(xy)"))


LOG_GOLDEN = [
    ("(xx)", F(-1, 2)),
    ("((xx)x)", F(1, 12)),
    ("(x(xx))", F(1, 4)),
    ("(x((xx)x))", F(-1, 24)),
    ("(x(x(xx)))", F(-1, 8)),
    ("((xx)(xx))", F(-1, 24)),
    ("((x(xx))x)", F(-1, 24)),
    ("(((xx)x)x)", F(0)),
]


@pytest.mark.parametrize("text,want", LOG_GOLDEN)
def test_log_series_golden(text, want):
    assert log_l_series(4).coefficient(parse(text)) == want


def test_log_l_of_one_plus_x():
    s = Series.one(4) + Series.generator("x", 4)
    got = log_l(s)
    assert got == log_l_series(4)


@pytest.mark.parametrize("n", range(1, 8))
def test_log_exp_inverse(n):
    x = Series.generator("x", n)
    assert log_l(exp_l("x", n)) == x


@pytest.mark.parametrize("n", range(1, 7))
def test_exp_log_inverse_both_orders(n):
    rng = random.Random(n)
    p = random_series(rng, 2, n)
    p = p - Series(n, constant=p.constant)  # zero constant term
    assert log_l(exp_l(p, n)) == p
    r = random_series(rng, 2, n)
    g = Series.one(n) + (r - Series(n, constant=r.constant))  # constant term 1
    assert exp_l(log_l(g), n) == g


def test_log_l_requires_unit_constant():
    with pytest.raises(ValueError):
        log_l(Series.generator("x", 3))


# -- substitution


def test_substitute_identity():
    u = Series(4, {parse("(xy)"): F(2), X: F(1)})
    f = Series.generator("x", 4)
    assert substitute(f, u) == u


def test_substitute_bilinearity():
    f = Series(2, {X: F(1), parse("(xx)"): F(1)})
    u = Series.generator("x", 2) + Series.generator("y", 2)
    got = substitute(f, u)
    assert got.coefficient(X) == 1 and got.coefficient(Y) == 1
    for t in ["(xx)", "(xy)", "(yx)", "(yy)"]:
        assert got.coefficient(parse(t)) == 1


def test_substitute_rejects_constant_target():
    with pytest.raises(ValueError):
        substitute(Series.generator("x", 2), Series.one(2))


def test_substitute_rejects_mixed_source():
    with pytest.raises(ValueError):
        substitute(Series(2, {parse("(xy)"): F(1)}), Series.generator("x", 2))


def test_exp_log_composition_via_substitute():
    # exp_l(log_l(1+x)) = 1 + x; the exponential's constant passes through
    n = 5
    composed = substitute(exp_l("x", n), log_l_series(n))
    assert composed == Series.one(n) + Series.generator("x", n)


# -- int numerators over one denominator


@pytest.mark.parametrize(
    "terms",
    [
        {X: F(-3, 4), Y: F(5, 6), parse("(xy)"): F(-7, 10)},
        {X: 2, Y: F(-1, 3), parse("(yx)"): -5},
        {X: 3, Y: -4, parse("(xx)"): 1},
        {},
    ],
    ids=["fractions", "mixed", "ints", "empty"],
)
def test_numerators_round_trip(terms):
    nums, den = _numerators(terms)
    assert all(type(v) is int for v in nums.values())
    assert den == lcm(*(F(c).denominator for c in terms.values()))
    assert all(F(v, den) == terms[k] for k, v in nums.items())
    assert dict(_coefficients(nums, den)) == terms


def test_numerators_share_the_lcm():
    nums, den = _numerators({X: F(1, 4), Y: F(-1, 6)})
    assert (nums, den) == ({X: 3, Y: -2}, 12)


def test_coefficients_drop_cancelled_terms():
    a, b = _numerators({X: F(1, 3), Y: F(1, 2)}), _numerators({X: F(-1, 3), Y: F(1, 2)})
    assert a[1] == b[1] == 6
    summed = {k: a[0][k] + b[0][k] for k in a[0]}
    assert dict(_coefficients(summed, 6)) == {Y: 1}
    assert dict(_coefficients({X: 0, Y: 0}, 1)) == {}


def test_coefficients_keep_ints_over_denominator_one():
    got = dict(_coefficients(*_numerators({X: 3, Y: -4})))
    assert got == {X: 3, Y: -4}
    assert all(type(c) is int for c in got.values())
    assert all(type(c) is F for _, c in _coefficients({X: 6, Y: 1}, 2))


# -- associative projection and Dynkin


def test_projection_examples():
    s = Series(3, {parse("(x(xy))"): F(1), parse("((xx)y)"): F(2)})
    p = project_associative(s)
    assert p.coefficient("xxy") == 3


def test_projection_is_homomorphism():
    rng = random.Random(3)
    for _ in range(15):
        s = random_series(rng, 2, 4)
        t = random_series(rng, 2, 4)
        assert project_associative(s * t) == project_associative(s) * project_associative(t)
    assert project_associative(Series.one(3)).constant == 1


def test_dynkin_low_degrees():
    d = dynkin_bch(2)
    assert d.coefficient("x") == 1 and d.coefficient("y") == 1
    assert d.coefficient("xy") == F(1, 2)
    assert d.coefficient("yx") == F(-1, 2)
    assert d.coefficient("xx") == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_dynkin_matches_projected_bch(n):
    assert dynkin_bch(n) == project_associative(bch_monomial(n))


# -- JSON


def test_series_json_round_trip():
    rng = random.Random(4)
    s = random_series(rng, 3, 4)
    data = series_to_json(s)
    assert series_from_json(data) == s
    # canonical term order makes re-serialization byte-stable
    assert series_to_json(series_from_json(data)) == data
    assert isinstance(data["constant"], str)


def test_series_json_accepts_integer_coefficients():
    data = {"truncation": 2, "constant": "2", "terms": [{"monomial": "x", "coeff": 3}]}
    s = series_from_json(data)
    assert s.constant == 2 and s.coefficient(X) == 3


# -- cached values


def test_cached_values_are_read_only():
    from nabch.dsw import DEGREE, _gamma_monomial, y_partial_x
    from nabch.hopf import coproduct, coproduct_monomial, left_divide_monomial
    from nabch.magnus import bch_ode, tau_components
    from nabch.suops import GX, GY, eval_prim, su_bracket_expr

    e = su_bracket_expr([GX], GX, GY)
    cached = [
        bch_monomial(3),
        bch_ode(3),
        log_l_series(3),
        eval_prim(e, e.degree),
        tau_components(2)[2],
    ]
    # the hopf monomial caches hand out their mappings themselves
    mappings = [value.terms for value in cached] + [
        coproduct_monomial(X),
        left_divide_monomial(parse("(xy)"), X),
        y_partial_x(parse("(xy)")),
        _gamma_monomial(DEGREE, parse("(xy)")),
        _gamma_monomial(y_partial_x, parse("(xx)")),
    ]
    # y d/dx sends the leaf y to nothing, and that empty map is cached too
    with pytest.raises(TypeError):
        y_partial_x(Y)[X] = F(7)
    assert not y_partial_x(Y)
    for terms in mappings:
        key = next(iter(terms))
        before = dict(terms)
        with pytest.raises(TypeError):
            terms[key] = F(7)
        with pytest.raises(TypeError):
            del terms[key]
        assert dict(terms) == before
    assert bch_monomial(3) is cached[0] and bch_monomial(3).coefficient(X) == 1
    assert eval_prim(e, e.degree) is cached[3]
    assert coproduct(Series.generator("x", 1)).coefficient((X, None)) == 1

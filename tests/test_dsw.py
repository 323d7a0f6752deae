from collections import Counter
from fractions import Fraction as F

import pytest

from nabch.dsw import (
    DEGREE,
    apply,
    bracketize_word,
    dsw_identity_check,
    gamma,
    y_partial_x,
)
from nabch.magma import (
    enumerate_monomials,
    format_monomial,
    is_left_normed_word,
    leaf,
    node,
    parse,
)
from nabch.magnus import tau_exp_l
from nabch.series import Series, exp_l
from nabch.suops import Commutator, Gen, PrimCombo, associator, su_bracket_expr

X = leaf("x")
Y = leaf("y")
GX, GY = Gen("x"), Gen("y")


# -- derivations


def test_y_partial_x_on_generators():
    assert apply(y_partial_x, Series.generator("x", 3)) == Series.generator("y", 3)
    assert apply(y_partial_x, Series.generator("y", 3)).is_zero()


def test_substitution_leibniz():
    got = apply(y_partial_x, Series.monomial(parse("(xx)"), 3))
    want = Series(3, {parse("(yx)"): F(1), parse("(xy)"): F(1)})
    assert got == want


@pytest.mark.parametrize("deg", range(1, 6))
def test_y_partial_x_replaces_one_x_leaf_at_a_time(deg):
    # an independent oracle: walk the printed monomial, turn each x into a y
    # in turn and parse the result back
    for m in enumerate_monomials(deg):
        text = format_monomial(m)
        want = Counter(
            parse(text[:i] + "y" + text[i + 1 :]) for i, ch in enumerate(text) if ch == "x"
        )
        assert dict(y_partial_x(m)) == dict(want), text


def test_degree_derivation():
    s = Series(3, {parse("(xy)"): F(1), X: F(1)}, constant=5)
    got = apply(DEGREE, s)
    assert got == Series(3, {parse("(xy)"): F(2), X: F(1)})


def test_derivation_preserves_primitives():
    from nabch.hopf import is_primitive
    from nabch.magnus import bch_monomial

    p = bch_monomial(4)
    assert is_primitive(apply(DEGREE, p))
    assert is_primitive(apply(y_partial_x, p))


# -- gamma


def test_gamma_of_product_of_generators():
    # gamma_deg(ab) = <b,a> = -[b,a] = ab - ba
    n = 2
    got = gamma(DEGREE, Series.monomial(parse("(xy)"), n))
    want = Series(n, {parse("(xy)"): F(1), parse("(yx)"): F(-1)})
    assert got == want


def test_gamma_on_homogeneous_primitive_scales_by_degree():
    from nabch.magnus import bch_monomial

    p = bch_monomial(4)
    for d in range(1, 5):
        h = p.homogeneous(d)
        assert gamma(DEGREE, h) == d * h


def test_gamma_ydx_of_exp_is_tangent_map():
    for n in range(1, 6):
        assert gamma(y_partial_x, exp_l("x", n + 1)) == tau_exp_l(n)


# -- the lemma


@pytest.mark.parametrize("du", range(1, 5))
def test_dsw_identity_exhaustive(du):
    for u in enumerate_monomials(du):
        for a in ("x", "y"):
            assert dsw_identity_check(u, a, DEGREE)
            assert dsw_identity_check(u, a, y_partial_x)


def test_dsw_identity_unit_case():
    assert dsw_identity_check(None, "x", DEGREE)
    assert dsw_identity_check(None, "y", y_partial_x)


def test_dsw_identity_spec_cases():
    assert dsw_identity_check(X, "y", DEGREE)
    assert dsw_identity_check(parse("(xy)"), "x", y_partial_x)


# -- symbolic bracketization


def test_bracketize_two_letters():
    # gamma_d(ab) = <b,a>, normalized to [a,b]
    assert bracketize_word(parse("(xy)")) == PrimCombo.single(Commutator(GX, GY))


def test_bracketize_three_letters():
    # gamma_d((ab)c) = <c,<b,a>> + <a;c,b> + <b;c,a>
    got = bracketize_word(node(node(X, Y), X))
    want = (
        PrimCombo.single(Commutator(Commutator(GX, GY), GX))
        + PrimCombo.single(su_bracket_expr([GX], GX, GY))
        + PrimCombo.single(su_bracket_expr([GY], GX, GX))
    )
    assert got == want


def test_bracketize_rejects_non_left_normed():
    with pytest.raises(ValueError):
        bracketize_word(parse("(x(xy))"))


@pytest.mark.parametrize("deg", range(1, 6))
def test_bracketize_semantic_equality(deg):
    for m in enumerate_monomials(deg):
        if not is_left_normed_word(m):
            continue
        combo = bracketize_word(m)
        assert combo.evaluate(deg) == gamma(DEGREE, Series.monomial(m, deg))


def test_degree_four_word_expansion():
    # ((xx)x)y: the recursion emits one bracket per proper subword pair;
    # repeated letters merge them into four distinct expressions
    w = node(node(node(X, X), X), Y)
    combo = bracketize_word(w)
    assert len(combo.terms) == 4
    assert sum(combo.terms.values()) == 9
    assert combo.evaluate(4) == gamma(DEGREE, Series.monomial(w, 4))
    # with distinct letters nothing merges: subsets of the three-letter
    # prefix with nonempty complement, each with a single-term gamma chain
    w2 = node(node(node(X, Y), leaf("z")), X)
    combo2 = bracketize_word(w2)
    assert combo2.evaluate(4) == gamma(DEGREE, Series.monomial(w2, 4))
    assert all(c == 1 for c in combo2.terms.values())


def test_mixed_association_correction():
    # gamma_deg(a(bc)) = gamma_deg((ab)c) - 3 (a,b,c) for distinct generators
    n = 3
    a, b, c = X, Y, leaf("z")
    lhs = gamma(DEGREE, Series.monomial(node(a, node(b, c)), n))
    combo = bracketize_word(node(node(a, b), c))
    sa, sb, sc = (Series.generator(v, n) for v in "xyz")
    rhs = combo.evaluate(n) - 3 * associator(sa, sb, sc)
    assert lhs == rhs


def test_d_recomposition_from_gamma():
    # d(u) = sum u_(1) gamma_d(u_(2)) for both derivation kinds
    from nabch.hopf import coproduct_monomial

    for deg in range(1, 6):
        for m in enumerate_monomials(deg):
            for d in (DEGREE, y_partial_x):
                want = apply(d, Series.monomial(m, deg))
                acc = Series.zero(deg)
                for (p, q), mult in coproduct_monomial(m).items():
                    if q is None:
                        continue
                    g = gamma(d, Series.monomial(q, deg))
                    if g.is_zero():
                        continue
                    acc = acc + mult * (g if p is None else Series.monomial(p, deg) * g)
                assert acc == want, (m, d)

"""Acceptance suite: one test per criterion, every equality exact.

Run with `pytest tests/test_acceptance.py -v` (add -s for the explicit
pass lines).
"""

from fractions import Fraction as F
from math import factorial

from nabch import checks, dsw, hopf, magnus, trees
from nabch.cuts import closed_form_xmyn, coefficient_via_cuts, xmyn_monomial
from nabch.magma import enumerate_monomials, is_left_normed_word, parse
from nabch.series import (
    Series,
    bernoulli,
    dynkin_bch,
    exp_l,
    exp_r,
    log_l_series,
    project_associative,
)
from nabch.suops import (
    Commutator as C,
    Gen,
    Phi as P,
    PrimCombo,
    eval_prim,
    su_bracket_expr as B,
)

GX, GY = Gen("x"), Gen("y")
XY = C(GX, GY)


def _ok(msg):
    print(f"PASS {msg}")


def degree4_primitive_expression() -> PrimCombo:
    pairs = [
        (F(1), GX),
        (F(1), GY),
        (F(1, 2), XY),
        # degree 3
        (F(1, 12), C(GX, XY)),
        (F(-1, 3), B([GX], GX, GY)),
        (F(-1, 12), C(GY, XY)),
        (F(-1, 6), B([GY], GX, GY)),
        (F(-1, 2), P([GX], [GY, GY])),
        # degree 4
        (F(-1, 24), B([GX], GX, XY)),
        (F(-1, 12), C(GX, B([GX], GX, GY))),
        (F(-1, 8), B([GX, GX], GX, GY)),
        (F(1, 24), C(C(GX, XY), GY)),
        (F(-1, 24), C(GX, B([GY], GX, GY))),
        (F(-1, 4), P([GX, GX], [GY, GY])),
        (F(-1, 4), C(GX, P([GX], [GY, GY]))),
        (F(-1, 24), C(B([GX], GX, GY), GY)),
        (F(-1, 24), B([GX], XY, GY)),
        (F(-1, 6), B([GX, GY], GX, GY)),
        (F(1, 24), B([GY, GX], GX, GY)),
        (F(1, 12), C(P([GX], [GY, GY]), GY)),
        (F(1, 24), B([GY], GY, XY)),
        (F(-1, 24), B([GY, GY], GX, GY)),
        (F(-1, 6), P([GX], [GY, GY, GY])),
    ]
    return PrimCombo([(e, c) for c, e in pairs])


def test_criterion_01_degree4_primitive_basis():
    combo = degree4_primitive_expression()
    b4 = magnus.bch_monomial(4)
    assert combo.evaluate(4) == b4
    assert magnus.bch_ode(4).evaluate(4) == b4
    _ok("criterion 1: degree-4 primitive expression and ODE route equal bch_monomial(4)")


BCH3 = [
    ("((xx)y)", F(1, 3)),
    ("(x(xy))", F(-1, 4)),
    ("(x(yx))", F(1, 4)),
    ("((xy)x)", F(-5, 12)),
    ("((yx)x)", F(1, 12)),
    ("(x(yy))", F(1, 2)),
    ("((xy)y)", F(-5, 12)),
    ("((yx)y)", F(1, 12)),
    ("(y(xy))", F(-1, 4)),
    ("((yy)x)", F(-1, 6)),
    ("(y(yx))", F(1, 4)),
]


def test_criterion_02_degree3_monomial_basis():
    b3 = magnus.bch_monomial(3)
    for text, want in BCH3:
        assert b3.coefficient(parse(text)) == want, text
    _ok("criterion 2: all 11 printed degree-3 monomial coefficients")


def test_criterion_03_log_golden_values():
    lg = log_l_series(4)
    golden = [
        ("(xx)", F(-1, 2)),
        ("((xx)x)", F(1, 12)),
        ("(x(xx))", F(1, 4)),
        ("(x((xx)x))", F(-1, 24)),
        ("(x(x(xx)))", F(-1, 8)),
        ("((xx)(xx))", F(-1, 24)),
        ("((x(xx))x)", F(-1, 24)),
    ]
    for text, want in golden:
        assert lg.coefficient(parse(text)) == want, text
    _ok("criterion 3: the seven printed log_l coefficients at degree <= 4")


def test_criterion_04_tau_components_and_n21():
    taus = magnus.tau_components(3)
    assert taus[1] == F(1, 2) * PrimCombo.single(B([], GX, GY))
    assert taus[2] == F(1, 3) * PrimCombo.single(B([GX], GX, GY)) + F(1, 6) * PrimCombo.single(
        B([], GX, B([], GX, GY))
    )
    assert taus[3] == (
        F(1, 8) * PrimCombo.single(B([GX, GX], GX, GY))
        + F(1, 8) * PrimCombo.single(B([GX], GX, B([], GX, GY)))
        + F(1, 12) * PrimCombo.single(B([], GX, B([GX], GX, GY)))
        + F(1, 24) * PrimCombo.single(B([], GX, B([], GX, B([], GX, GY))))
    )
    assert magnus.n_coeff((2, 1)) == F(1, 24)
    _ok("criterion 4: tau_1..tau_3 term-for-term and n_(2,1) = 1/24")


def test_criterion_05_bernoulli_bridge():
    for k in range(1, 13):
        assert magnus.n_coeff((1,) * k) == bernoulli(k) / factorial(k), k
    for k in range(2, 13):
        w = trees.woon_level_sum(k)
        f = trees.fuchs_level_sum(k, trees.bernoulli_weights)
        assert w == f == bernoulli(k) / factorial(k), k
    for weight in range(1, 8):
        for j in magnus.compositions(weight):
            assert trees.nj_tree_sum(j) == magnus.n_coeff(j), j
    _ok("criterion 5: Bernoulli bridge across recurrence, Woon, Fuchs and n_J trees")


def test_criterion_06_cuts_oracle():
    b6 = magnus.bch_monomial(6)
    count = 0
    for deg in range(1, 7):
        for m in enumerate_monomials(deg):
            assert coefficient_via_cuts(m) == b6.coefficient(m), m
            count += 1
    assert count == 2 + 4 + 16 + 80 + 448 + 2688
    assert coefficient_via_cuts(parse("(x(xy))")) == F(-1, 4)
    assert coefficient_via_cuts(parse("((xx)y)")) == F(1, 3)
    assert coefficient_via_cuts(parse("((xy)(xy))")) == F(-5, 24)
    for m in range(1, 7):
        for n in range(1, 7):
            if m + n <= 7:
                assert closed_form_xmyn(m, n) == coefficient_via_cuts(xmyn_monomial(m, n))
    _ok(f"criterion 6: cut formula on all {count} monomials of degree <= 6 plus closed forms")


def test_criterion_07_associative_collapse():
    assert project_associative(magnus.bch_monomial(5)) == dynkin_bch(5)
    combo = degree4_primitive_expression()
    from nabch.suops import Phi, SUBracket

    for e in combo.terms:
        if isinstance(e, (SUBracket, Phi)):
            assert project_associative(eval_prim(e, 4)).is_zero(), e
    _ok("criterion 7: projection equals the Dynkin series; brackets and Phi collapse to 0")


def test_criterion_08_hopf_identity_suite():
    results = checks.check_hopf(5) + [
        r for r in checks.check_suops(3) if "recursion identity" in r.name
    ]
    for r in results:
        assert r.passed, r
    _ok("criterion 8: division identities, co-axioms, multiplicativity, bracket identity")


def test_criterion_09_dsw_suite():
    for du in range(1, 5):
        for u in enumerate_monomials(du):
            for a in ("x", "y"):
                assert dsw.dsw_identity_check(u, a, dsw.DEGREE)
                assert dsw.dsw_identity_check(u, a, dsw.y_partial_x)
    for deg in range(1, 6):
        for m in enumerate_monomials(deg):
            if is_left_normed_word(m):
                assert dsw.bracketize_word(m).evaluate(deg) == dsw.gamma(
                    dsw.DEGREE, Series.monomial(m, deg)
                )
    assert dsw.gamma(dsw.y_partial_x, exp_l("x", 7)) == magnus.tau_exp_l(6)
    _ok("criterion 9: DSW lemma, symbolic bracketization, tangent-map identification")


def test_criterion_10_inverse_and_structure():
    t = PrimCombo.single(GY)
    y7 = Series.generator("y", 7)
    assert magnus.tau_apply(magnus.tau_inverse(t, 7), 7).evaluate(7) == y7
    assert magnus.tau_inverse(magnus.tau_apply(t, 7), 7).evaluate(7) == y7
    for w1 in range(1, 3):
        for w2 in range(1, 3):
            for j1 in magnus.compositions(w1):
                for j2 in magnus.compositions(w2):
                    assert magnus.p_nested_expr(j1 + j2) is magnus.p_nested_expr(
                        j1, GX, magnus.p_nested_expr(j2)
                    )
    assert hopf.is_primitive(magnus.bch_monomial(6))
    assert hopf.is_grouplike(exp_l("x", 6))
    assert hopf.is_grouplike(exp_r("x", 6))
    assert hopf.is_grouplike(exp_l("x", 6) * exp_r("y", 6))
    assert hopf.is_grouplike(exp_l("x", 6) * exp_l("y", 6))
    _ok("criterion 10: inverse law to x-degree 6, composition law, primitivity, group-likes")

import hashlib
from fractions import Fraction as F
from functools import cache
from math import factorial

import pytest

from nabch import magnus, suops
from nabch.dsw import gamma, y_partial_x
from nabch.magma import leaf, parse
from nabch.magnus import (
    bch_first_order,
    bch_first_order_combo,
    bch_monomial,
    bch_ode,
    compositions,
    m_coeff,
    n_coeff,
    p_nested_expr,
    tau_apply,
    tau_components,
    tau_exp_l,
    tau_inverse,
)
from nabch.series import Series, bernoulli, dynkin_bch, exp_l, project_associative
from nabch.hopf import is_primitive
from nabch.suops import Commutator, Gen, Phi, PrimCombo, eval_prim, expr_to_text, su_bracket_expr

GX, GY = Gen("x"), Gen("y")
B = su_bracket_expr


# -- compositions and coefficients


def test_compositions_counts():
    for w in range(1, 8):
        assert len(compositions(w)) == 2 ** (w - 1)
        assert all(sum(j) == w for j in compositions(w))
    assert len(set(compositions(5))) == 16


def test_m_coeff_golden():
    assert m_coeff((1,)) == F(1, 2)
    assert m_coeff((2,)) == F(1, 3)
    assert m_coeff((2, 1)) == F(1, 8)
    assert m_coeff((1, 2)) == F(1, 12)
    assert m_coeff((3,)) == F(1, 8)


def test_n_coeff_golden():
    assert n_coeff((1,)) == F(-1, 2)
    assert n_coeff((2,)) == F(-1, 3)
    assert n_coeff((2, 1)) == F(1, 24)
    assert n_coeff((1, 2)) == F(1, 12)


@pytest.mark.parametrize("k", range(1, 13))
def test_n_all_ones_is_bernoulli(k):
    assert n_coeff((1,) * k) == bernoulli(k) / factorial(k)


def _n_by_factorizations(j):
    """n_J by its definition: the alternating sum of m-products over all
    2^(s-1) concatenation factorizations of J."""
    s = len(j)
    out = F(0)
    for mask in range(1 << (s - 1)):
        blocks = []
        start = 0
        for i in range(s - 1):
            if mask >> i & 1:
                blocks.append(j[start : i + 1])
                start = i + 1
        blocks.append(j[start:])
        term = F((-1) ** len(blocks))
        for b in blocks:
            term *= m_coeff(tuple(b))
        out += term
    return out


def test_n_coeff_matches_factorization_sum_through_weight_10():
    for weight in range(1, 11):
        for j in compositions(weight):
            assert n_coeff(j) == _n_by_factorizations(j), j


def test_n_coeff_of_a_long_tuple():
    # 2^59 factorizations; the suffix recurrence takes 60^2 / 2 products
    assert n_coeff((1,) * 60) == bernoulli(60) / factorial(60)


# -- nested brackets


def test_p_nested_shapes():
    x = Series.generator("x", 4)
    y = Series.generator("y", 4)
    assert eval_prim(p_nested_expr((1,)), 4) == y * x - x * y  # <x,y> = -[x,y]
    assert p_nested_expr((1,)) == Commutator(GY, GX)
    assert p_nested_expr((2,)) == B([GX], GX, GY)
    assert p_nested_expr((2, 1)) == B([GX], GX, Commutator(GY, GX))


def test_p_nested_expr_composition_law():
    for w1 in range(1, 3):
        for w2 in range(1, 3):
            for j1 in compositions(w1):
                for j2 in compositions(w2):
                    assert p_nested_expr(j1 + j2) == p_nested_expr(
                        j1, GX, p_nested_expr(j2, GX, GY)
                    )


# -- tangent map


def test_tau_components_golden():
    taus = tau_components(3)
    assert taus[0] == PrimCombo.single(GY)
    assert taus[1] == F(1, 2) * PrimCombo.single(B([], GX, GY))
    want2 = F(1, 3) * PrimCombo.single(B([GX], GX, GY)) + F(1, 6) * PrimCombo.single(
        B([], GX, B([], GX, GY))
    )
    assert taus[2] == want2
    want3 = (
        F(1, 8) * PrimCombo.single(B([GX, GX], GX, GY))
        + F(1, 8) * PrimCombo.single(B([GX], GX, B([], GX, GY)))
        + F(1, 12) * PrimCombo.single(B([], GX, B([GX], GX, GY)))
        + F(1, 24) * PrimCombo.single(B([], GX, B([], GX, B([], GX, GY))))
    )
    assert taus[3] == want3


def test_tau_components_match_m_weighted_brackets():
    # the recurrence's tau_n = the degree-(n+1) part of y + sum_J m_J P_J(x;y)
    t = PrimCombo.single(GY)
    for n in range(1, 6):
        want = tau_apply(t, n + 1).component(n + 1)
        assert tau_components(n)[n].evaluate(n + 1) == want.evaluate(n + 1)


def test_tau_equals_gamma_of_exp():
    for n in range(1, 7):
        assert tau_exp_l(n) == gamma(y_partial_x, exp_l("x", n + 1))


def test_tau_inverse_golden_degree2():
    combo = tau_inverse(PrimCombo.single(GY), 3)
    deg3 = combo.component(3)
    want = F(1, 12) * PrimCombo.single(B([], GX, B([], GX, GY))) + F(-1, 3) * PrimCombo.single(
        B([GX], GX, GY)
    )
    assert deg3 == want


def test_tau_inverse_p21_coefficient():
    combo = tau_inverse(PrimCombo.single(GY), 4)
    assert combo.terms.get(p_nested_expr((2, 1))) == F(1, 24)


@pytest.mark.parametrize("n", range(2, 8))
def test_tau_inverse_law(n):
    t = PrimCombo.single(GY)
    y = Series.generator("y", n)
    assert tau_apply(tau_inverse(t, n), n).evaluate(n) == y
    assert tau_inverse(tau_apply(t, n), n).evaluate(n) == y


@pytest.mark.parametrize("n", range(1, 10))
def test_tau_inverse_law_is_symbolic(n):
    # P_J1(x; P_J2(x; y)) is P_J1||J2(x; y), so the composites collect on each
    # P_J the coefficient sum of n_coeff's suffix recurrence (and its prefix
    # twin), which is exactly 0: the laws hold before any evaluation
    t = PrimCombo.single(GY)
    assert tau_apply(tau_inverse(t, n), n) == t
    assert tau_inverse(tau_apply(t, n), n) == t


def test_tau_maps_cap_at_the_degree():
    t = PrimCombo.single(GY) + PrimCombo.single(p_nested_expr((2,)), 5)
    assert tau_apply(t, 1) == PrimCombo.single(GY)
    assert tau_apply(t, 3).max_degree() == 3
    assert tau_inverse(t, 3).terms[p_nested_expr((2,))] == 5 + n_coeff((2,))


# -- first order


def test_bch_first_order_degree_11():
    fo = bch_first_order(2)
    assert fo.coefficient(parse("(xy)")) == F(1, 2)
    assert fo.coefficient(parse("(yx)")) == F(-1, 2)


def test_bch_first_order_degree_31_combo():
    combo = bch_first_order_combo(4)
    d4 = combo.component(4)
    want = (
        F(1, 12) * PrimCombo.single(B([], GX, B([GX], GX, GY)))
        + F(1, 24) * PrimCombo.single(B([GX], GX, B([], GX, GY)))
        + F(-1, 8) * PrimCombo.single(B([GX, GX], GX, GY))
    )
    assert d4 == want


@pytest.mark.parametrize("n", range(1, 7))
def test_bch_first_order_agrees_on_y_linear(n):
    fo = bch_first_order(n)
    b = bch_monomial(n)
    for m, c in b.terms.items():
        if m.ydeg <= 1:
            assert fo.coefficient(m) == c, m
    for m, c in fo.terms.items():
        if m.ydeg <= 1:
            assert b.coefficient(m) == c, m


def _leaves(e):
    """The generator names at the leaves of e, by a walk of its operands."""
    if isinstance(e, Gen):
        return [e.name]
    return [g for arg in e.args for a in (arg if isinstance(arg, tuple) else (arg,)) for g in _leaves(a)]


def test_expressions_carry_their_degree_and_y_degree():
    exprs = [*bch_ode(6).terms, *(e for tau in tau_components(5) for e in tau.terms)]
    for e in exprs:
        leaves = _leaves(e)
        assert (e.degree, e.ydeg) == (len(leaves), leaves.count("y")), e


# -- the monomial BCH series


def test_bch_monomial_degree2():
    b = bch_monomial(2)
    assert b.coefficient(leaf("x")) == 1
    assert b.coefficient(leaf("y")) == 1
    assert b.coefficient(parse("(xy)")) == F(1, 2)
    assert b.coefficient(parse("(yx)")) == F(-1, 2)
    assert b.coefficient(parse("(xx)")) == 0


BCH3_GOLDEN = [
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
    ("(y(xx))", F(0)),
    ("((xx)x)", F(0)),
    ("((yy)y)", F(0)),
]


@pytest.mark.parametrize("text,want", BCH3_GOLDEN)
def test_bch_monomial_degree3_golden(text, want):
    assert bch_monomial(3).coefficient(parse(text)) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_bch_monomial_is_primitive(n):
    assert is_primitive(bch_monomial(n))


def test_bch_exponentiates_back():
    # exp_l(BCH) == exp_l(x) exp_l(y)
    n = 5
    assert exp_l(bch_monomial(n), n) == exp_l("x", n) * exp_l("y", n)


# -- the ODE route


@pytest.mark.parametrize("n", range(1, 8))
def test_bch_ode_equals_bch_monomial(n):
    assert bch_ode(n).evaluate(n) == bch_monomial(n)


def test_bch_ode_degree_12_component():
    got = bch_ode(3)
    got_12 = Series(
        3,
        {
            m: c
            for m, c in got.evaluate(3).terms.items()
            if m.xdeg == 1 and m.ydeg == 2
        },
    )
    want = (
        F(-1, 12) * PrimCombo.single(Commutator(GY, Commutator(GX, GY)))
        + F(1, 6) * PrimCombo.single(B([GY], GY, GX))
        + F(-1, 2) * PrimCombo.single(Phi([GX], [GY, GY]))
    )
    assert got_12 == want.evaluate(3)


def test_bch_ode_degree3_matches_rewriting():
    # x + y + 1/2[x,y] + 1/12[x,[x,y]] - 1/3<x;x,y> - 1/12[y,[x,y]]
    #   + 1/6<y;y,x> - 1/2 Phi(x;y,y)
    want = (
        PrimCombo.single(GX)
        + PrimCombo.single(GY)
        + F(1, 2) * PrimCombo.single(Commutator(GX, GY))
        + F(1, 12) * PrimCombo.single(Commutator(GX, Commutator(GX, GY)))
        + F(-1, 3) * PrimCombo.single(B([GX], GX, GY))
        + F(-1, 12) * PrimCombo.single(Commutator(GY, Commutator(GX, GY)))
        + F(1, 6) * PrimCombo.single(B([GY], GY, GX))
        + F(-1, 2) * PrimCombo.single(Phi([GX], [GY, GY]))
    )
    assert bch_ode(3).evaluate(3) == want.evaluate(3)


def test_ode_projects_to_dynkin():
    for n in range(1, 6):
        assert project_associative(bch_ode(n).evaluate(n)) == dynkin_bch(n)


def test_bch_ode_degree_7_is_pinned():
    text = bch_ode(7).to_text()
    want = "71b7e83b111a8f943e8fa92b01e20dd430ac7908c4e4605d8d90bb125b2f55cb"
    assert hashlib.sha256(text.encode()).hexdigest() == want


def test_bch_ode_degree_8_is_pinned():
    # degree 8 is the CLI's cap for the primitive basis
    text = bch_ode(8).to_text()
    want = "f8b730ebbe83edc8b535a799348c788e0ca2d5ad125f2615ff5734ae402831b3"
    assert hashlib.sha256(text.encode()).hexdigest() == want


@cache
def _bch_by_composition_sum(n):
    """Route 2 by the paper's formula Omega' = D + sum_J n_J P_J(Omega; D),
    degree by degree: the oracle for bch_ode's tangent-map recurrence.

    P_J is built by the composition law P_J = <Omega^(j_1 - 1); Omega, P_J'>
    for J = (j_1) || J', with P_() = D, and its degree-d part reads only parts
    below degree d.  A term of y-degree k integrates to 1/k of itself.
    """
    drive = [(GY, F(1))] + [
        (Phi([GX] * m, [GY] * (k + 1)), -F(1, factorial(m) * factorial(k)))
        for k in range(1, n - 1)
        for m in range(1, n - k)
    ]
    omega = [(GX, F(1))]
    nested = {(): []}  # P_J's terms by composition J, in ascending degree
    for d in range(1, n + 1):
        drive_d = [(e, c) for e, c in drive if e.degree == d]
        deriv = dict(drive_d)
        for weight in range(1, d):
            for j in compositions(weight):
                part = {}
                magnus._cross_bracket([omega] * j[0] + [nested[j[1:]]], d, part, F(1))
                nested.setdefault(j, []).extend(part.items())
                for e, c in part.items():
                    deriv[e] = deriv.get(e, 0) + n_coeff(j) * c
        nested[()] += drive_d
        omega += [(e, c / expr_to_text(e).count("y")) for e, c in deriv.items() if c]
    return PrimCombo(omega)


@pytest.mark.parametrize("n", range(1, 8))
def test_bch_ode_equals_the_composition_sum(n):
    assert bch_ode(n) == _bch_by_composition_sum(7).up_to(n)


def test_the_walk_drops_exactly_the_keys_that_evaluate_to_zero(monkeypatch):
    keys = set()

    def recording(e):
        keys.add(e)
        return suops._canon(e)

    monkeypatch.setattr(magnus, "_canon", recording)
    for n in range(1, 7):
        bch_ode.__wrapped__(n)
    dropped = {e for e in keys if suops._canon(e) is None}
    # exact evaluation is the oracle: the rule is sound and, here, complete
    assert dropped == {e for e in keys if suops.eval_prim(e, e.degree).is_zero()}
    assert (len(keys), len(dropped)) == (1352, 122)


def test_bch_ode_evaluates_nothing():
    suops._eval.cache_clear()
    bch_ode.__wrapped__(6)
    info = suops._eval.cache_info()
    assert info.hits == info.misses == 0


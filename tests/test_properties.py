"""Hypothesis property tests over randomly generated monomials and series."""

import json
from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings, strategies as st

from nabch.hopf import coproduct, coproduct_monomial, is_primitive, left_divide
from nabch.magma import compare, format_monomial, leaf, monomial_to_json, node, parse
from nabch.magnus import _cross_bracket
from nabch.series import (
    Series,
    project_associative,
    series_from_json,
    series_json_text,
    series_to_json,
    substitute,
)
from nabch.suops import (
    GX,
    GY,
    Commutator,
    Phi,
    PrimCombo,
    _canon,
    associator,
    eval_prim,
    p_series,
    su_bracket,
    su_bracket_expr,
)


def monomials(max_degree=4):
    leaves = st.sampled_from(["x", "y"]).map(leaf)
    return st.recursive(
        leaves,
        lambda children: st.tuples(children, children).map(lambda p: node(*p)),
        max_leaves=max_degree,
    )


def rationals():
    return st.builds(F, st.integers(-6, 6), st.integers(1, 5))


def series(truncation=4, max_degree=4):
    return st.dictionaries(monomials(max_degree), rationals(), min_size=1, max_size=4).map(
        lambda terms: Series(truncation, terms)
    )


@given(monomials(6))
def test_parse_format_round_trip(m):
    assert parse(format_monomial(m)) == m


@given(monomials(5), monomials(5))
def test_compare_antisymmetric(a, b):
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) == 0:
        assert a == b


@given(monomials(5), monomials(5), monomials(5))
def test_compare_transitive(a, b, c):
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


@given(monomials(4))
def test_coproduct_term_count(m):
    # one Sweedler pair per leaf subset
    assert sum(coproduct_monomial(m).values()) == 2**m.degree


@settings(max_examples=25, deadline=None)
@given(series(), series())
def test_projection_is_multiplicative(s, t):
    assert project_associative(s * t) == project_associative(s) * project_associative(t)


@settings(max_examples=25, deadline=None)
@given(series(), series())
def test_coproduct_is_multiplicative(s, t):
    assert coproduct(s * t) == coproduct(s) * coproduct(t)


@settings(max_examples=20, deadline=None)
@given(series())
def test_coproduct_cocommutative(s):
    d = coproduct(s).terms
    assert d == {(b, a): c for (a, b), c in d.items()}


@settings(max_examples=20, deadline=None)
@given(series(truncation=4, max_degree=2), series(truncation=4, max_degree=2))
def test_bracket_antisymmetric_in_tail(u, v):
    assert (su_bracket([u], u, v) + su_bracket([u], v, u)).is_zero()


@settings(max_examples=15, deadline=None)
@given(series(truncation=5, max_degree=2))
def test_substitute_into_single_power(u):
    # substituting into the bare generator is the identity
    u = u - Series(u.truncation, constant=u.constant)
    f = Series.generator("x", u.truncation)
    assert substitute(f, u) == u


def x_series(truncation=5, max_degree=4):
    """A one-variable series with two or more terms and a constant."""
    xs = st.recursive(
        st.just(leaf("x")),
        lambda children: st.tuples(children, children).map(lambda p: node(*p)),
        max_leaves=max_degree,
    )
    terms = st.dictionaries(xs, rationals().filter(bool), min_size=2, max_size=5)
    return st.tuples(terms, rationals()).map(lambda tc: Series(truncation, *tc))


def _mixed(u):
    """Whether u has coefficients of both signs over more than one denominator."""
    cs = u.terms.values()
    return any(c < 0 for c in cs) and any(c > 0 for c in cs) and len({c.denominator for c in cs}) > 1


def _replace_leaves(m, u):
    """m with every leaf replaced by u, multiplied out with Series.__mul__."""
    return u if m.is_leaf else _replace_leaves(m.left, u) * _replace_leaves(m.right, u)


@settings(max_examples=25, deadline=None)
@given(x_series(), series(truncation=5, max_degree=3).filter(_mixed))
def test_substitute_matches_leafwise_products(f, u):
    want = Series(f.truncation, constant=f.constant)
    for m, c in f.terms.items():
        want = want + c * _replace_leaves(m, u)
    assert substitute(f, u) == want


def unital_series(truncation=4, max_degree=3):
    """A series with a nonzero constant term."""
    nonzero = rationals().filter(bool)
    return st.tuples(series(truncation, max_degree), nonzero).map(
        lambda sc: Series(truncation, sc[0].terms, sc[1])
    )


def _sweedler(s):
    """(coefficient, left factor, right factor) over Delta(s), units as Series.one."""
    def part(m):
        return Series.one(s.truncation) if m is None else Series.monomial(m, s.truncation)

    return [(c, part(a), part(b)) for (a, b), c in coproduct(s).terms.items()]


@settings(max_examples=25, deadline=None)
@given(unital_series(), unital_series(), series(max_degree=2))
def test_p_series_is_the_sweedler_sum(u, v, z):
    # p(U, V, Z) = sum (U_(1) V_(1)) \ (U_(2), V_(2), Z), term by term
    want = Series.zero(4)
    for cu, u1, u2 in _sweedler(u):
        for cv, v1, v2 in _sweedler(v):
            want = want + (cu * cv) * left_divide(u1 * v1, associator(u2, v2, z))
    assert p_series(u, v, z) == want


@settings(max_examples=25, deadline=None)
@given(unital_series(), series(), series())
def test_bracket_is_the_p_difference_plus_the_unit_part(u, y, z):
    want = p_series(u, z, y) - p_series(u, y, z) + u.constant * (z * y - y * z)
    assert su_bracket([u], y, z) == want


@settings(max_examples=20, deadline=None)
@given(unital_series(), series(), series(max_degree=3), series(max_degree=3))
def test_bracket_is_additive_in_each_slot(u, v, y, z):
    # multi-term arguments in every slot, the prefix with and without a unit part
    assert su_bracket([u + v], y, z) == su_bracket([u], y, z) + su_bracket([v], y, z)
    assert su_bracket([u], y + z, v) == su_bracket([u], y, v) + su_bracket([u], z, v)
    assert su_bracket([u], v, y + z) == su_bracket([u], v, y) + su_bracket([u], v, z)


@settings(max_examples=10, deadline=None)
@given(series(truncation=4, max_degree=2), series(truncation=4, max_degree=2))
def test_commutator_of_primitive_parts(s, t):
    # the commutator of primitive series is primitive
    sp = Series(4, {m: c for m, c in s.terms.items() if m.degree == 1})
    tp = Series(4, {m: c for m, c in t.terms.items() if m.degree == 1})
    assert is_primitive(sp * tp - tp * sp)


# -- primitive-operation combinations

EXPRS = (
    GX,
    GY,
    Commutator(GX, GY),
    Commutator(GY, GX),
    su_bracket_expr([GX], GX, GY),
    su_bracket_expr([GY], GY, GX),
    Phi([GX], [GY, GY]),
)


def combos(min_size=0):
    nonzero = rationals().filter(bool)
    return st.dictionaries(st.sampled_from(EXPRS), nonzero, min_size=min_size, max_size=4).map(
        PrimCombo
    )


def _cross_bracket_by_product(slot_combos, d):
    """The whole product of slot terms, then the degree-d component: the oracle."""
    out = {}
    for choice in product(*(c.terms.items() for c in slot_combos)):
        if sum(e.degree for e, _ in choice) != d:
            continue
        coeff = F(1)
        for _, c in choice:
            coeff *= c
        exprs = [e for e, _ in choice]
        key = su_bracket_expr(tuple(exprs[:-2]), exprs[-2], exprs[-1])
        out[key] = out.get(key, 0) + coeff
    return PrimCombo(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(combos(), max_size=2), combos(), combos(), st.integers(1, 7), rationals())
def test_cross_bracket_equals_product_expansion(prefix, y, z, d, scale):
    slot_combos = [*prefix, y, z]
    got = {}
    _cross_bracket(
        [sorted(c.terms.items(), key=lambda kv: kv[0].degree) for c in slot_combos], d, got, scale
    )
    want = _cross_bracket_by_product(slot_combos, d)
    # the walk drops the terms that antisymmetry alone makes zero
    skipped = PrimCombo({e: c for e, c in want.terms.items() if _canon(e) is None})
    assert PrimCombo(got) == scale * (want - skipped)
    for e in skipped.terms:
        assert eval_prim(e, e.degree).is_zero()


@settings(max_examples=40, deadline=None)
@given(combos(min_size=1), st.integers(1, 4))
def test_prim_combo_evaluate_is_termwise_sum(combo, n):
    want = Series.zero(n)
    for e, c in combo.terms.items():
        want = want + c * eval_prim(e, n)
    assert combo.evaluate(n) == want


def coefficients():
    negative_fractions = st.builds(F, st.integers(-99, -1), st.integers(2, 9))
    return st.one_of(st.integers(-50, 50), negative_fractions)


@st.composite
def shared_series(draw):
    """A series whose monomials are built from one growing list of trees, so
    they share subtrees: each step multiplies one of the newest trees by one
    of the first few, so the trees nest up to about 30 deep.  The degree
    stays small enough for the nested-list encoding, which expands every
    shared subtree."""
    pool = [leaf("x"), leaf("y")]
    step = st.tuples(st.integers(0, 1), st.integers(0, 3), st.booleans())
    for _ in range(draw(st.integers(0, 40))):
        back, pick, newest_left = draw(step)
        a, b = pool[-1 - min(back, len(pool) - 1)], pool[pick % len(pool)]
        if a.degree + b.degree <= 80:
            pool.append(node(a, b) if newest_left else node(b, a))
    picks = draw(st.lists(st.tuples(st.integers(0, 12), coefficients()), max_size=8))
    terms = {pool[-1 - i % len(pool)]: c for i, c in picks}
    truncation = max((m.degree for m in terms), default=1) + draw(st.integers(0, 2))
    return Series(truncation, terms, draw(st.one_of(st.just(0), coefficients())))


def nested_encoding(s):
    return {
        "truncation": s.truncation,
        "constant": str(s.constant),
        "terms": [{"monomial": monomial_to_json(m), "coeff": str(c)} for m, c in s.items()],
    }


@settings(max_examples=80, deadline=None)
@given(shared_series())
def test_series_json_text_is_the_nested_encoding_dumped(s):
    assert series_json_text(s) == json.dumps(nested_encoding(s))
    assert series_from_json(series_to_json(s)) == s

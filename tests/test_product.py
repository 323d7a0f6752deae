"""The sparse product kernel against a brute-force double loop, and the
p-operation and the bracket against their series-level definitions."""

from fractions import Fraction as F
from operator import add

from hypothesis import given, settings, strategies as st

from nabch import hopf
from nabch.hopf import _key_degree, _tensor_join, coproduct, left_divide
from nabch.magma import leaf, node
from nabch.series import Series, _product, exp_l
from nabch.suops import associator, p_series, su_bracket


def monomials(max_degree=4):
    leaves = st.sampled_from(["x", "y"]).map(leaf)
    return st.recursive(
        leaves,
        lambda children: st.tuples(children, children).map(lambda p: node(*p)),
        max_leaves=max_degree,
    )


def rationals():
    return st.builds(F, st.integers(-6, 6), st.integers(1, 5))


def words():
    return st.text(alphabet="xy", min_size=1, max_size=4)


def tensor_pairs():
    slot = st.none() | monomials(3)
    return st.tuples(slot, slot).filter(lambda k: k != (None, None))


def _brute(p, q, cap, join, degree):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            if degree(a) + degree(b) <= cap:
                k = join(a, b)
                out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


# Each key type with its join and its degree, as the package's products use them.
KINDS = {
    "monomial": (monomials(), node, lambda m: m.degree),
    "word": (words(), add, len),
    "tensor": (tensor_pairs(), _tensor_join, _key_degree),
}


@st.composite
def operands(draw, kind):
    keys, join, degree = KINDS[kind]
    p = draw(st.dictionaries(keys, rationals(), min_size=1, max_size=5))
    q = draw(st.dictionaries(keys, rationals(), min_size=1, max_size=5))
    return p, q, join, degree


def _check_kernel(data, cap_shift):
    p, q, join, degree = data
    # the cap sits at the degree of the first pair, or one below it; every
    # join keeps the degree, so no other pair lands on that pair's key
    a, b = next(iter(p)), next(iter(q))
    cap = degree(a) + degree(b) - cap_shift
    raw = _product(p, q, cap, join, degree)
    assert {k: c for k, c in raw.items() if c} == _brute(p, q, cap, join, degree)
    assert (join(a, b) in raw) == (cap_shift == 0)


@given(operands("monomial"), st.sampled_from([0, 1]))
def test_product_on_monomials_matches_double_loop(data, shift):
    _check_kernel(data, shift)


@given(operands("word"), st.sampled_from([0, 1]))
def test_product_on_words_matches_double_loop(data, shift):
    _check_kernel(data, shift)


@given(operands("tensor"), st.sampled_from([0, 1]))
def test_product_on_tensor_pairs_matches_double_loop(data, shift):
    _check_kernel(data, shift)


def test_product_keeps_the_pair_at_the_cap_and_drops_the_one_above():
    x, y = leaf("x"), leaf("y")
    p, q = {x: F(2)}, {node(x, y): F(3)}
    assert _product(p, q, 3, node) == {node(x, node(x, y)): 6}
    assert _product(p, q, 2, node) == {}
    assert _product({"xy": 1}, {"y": 5}, 3, add, len) == {"xyy": 5}
    assert _product({"xy": 1}, {"y": 5}, 2, add, len) == {}
    assert _product({(x, None): 1}, {(None, y): 1}, 2, _tensor_join, _key_degree) == {(x, y): 1}
    assert _product({(x, None): 1}, {(None, y): 1}, 1, _tensor_join, _key_degree) == {}


# -- the p-operation against its definition


def p_oracle(u, v, z):
    """p(U,V,Z) = sum (U_(1) V_(1)) \\ (U_(2), V_(2), Z), one series-level
    associator and left division per pair of Sweedler components."""
    n = min(u.truncation, v.truncation, z.truncation)
    out = Series.zero(n)
    for (a, b), cu in coproduct(u).terms.items():
        if b is None:
            continue
        for (c, d), cv in coproduct(v).terms.items():
            if d is None:
                continue
            w = hopf._graft(a, c)
            left = Series.one(n) if w is None else Series.monomial(w, n)
            assoc = associator(Series.monomial(b, n), Series.monomial(d, n), z)
            out = out + (cu * cv) * left_divide(left, assoc)
    return out


def bracket_oracle(u, y, z):
    """<u; y, z>: eps(u) (-[y,z]) plus p over the positive part of u."""
    pos = u - Series(u.truncation, constant=u.constant)
    return u.constant * (z * y - y * z) + p_oracle(pos, z, y) - p_oracle(pos, y, z)


def series_with_constant(truncation):
    terms = st.dictionaries(monomials(3), rationals(), min_size=1, max_size=3)
    return st.builds(lambda t, c: Series(truncation, t, c), terms, rationals())


TRUNCATION = 5


@settings(max_examples=40, deadline=None)
@given(
    series_with_constant(TRUNCATION),
    series_with_constant(TRUNCATION),
    series_with_constant(TRUNCATION),
)
def test_p_series_matches_the_series_level_definition(u, v, z):
    assert p_series(u, v, z) == p_oracle(u, v, z)


@settings(max_examples=40, deadline=None)
@given(
    series_with_constant(TRUNCATION),
    series_with_constant(TRUNCATION),
    series_with_constant(TRUNCATION),
)
def test_su_bracket_series_matches_the_series_level_definition(u, y, z):
    assert su_bracket([u], y, z) == bracket_oracle(u, y, z)


def test_p_series_matches_the_definition_on_a_grouplike_prefix():
    n = 5
    u, v = exp_l("x", n), exp_l("y", n)
    z = Series.generator("y", n) + Series.monomial(node(leaf("x"), leaf("y")), n) + Series.one(n)
    assert p_series(u, v, z) == p_oracle(u, v, z)
    assert not p_series(u, v, z).is_zero()

import pytest
from hypothesis import given, strategies as st

from nabch.magma import (
    ParseError,
    compare,
    enumerate_monomials,
    format_monomial,
    leaf,
    left_normed_power,
    mirror,
    monomial_from_json,
    monomial_to_json,
    node,
    parse,
)

X = leaf("x")
Y = leaf("y")


def catalan(n: int) -> int:
    # independent oracle: C(2n, n)/(n+1)
    from math import comb

    return comb(2 * n, n) // (n + 1)


# -- parsing and formatting


def test_parse_generators():
    assert parse("x") is X
    assert parse("y") is Y


def test_parse_products():
    assert parse("((xx)y)") == node(node(X, X), Y)
    assert parse("(x(xy))") == node(X, node(X, Y))
    assert parse(" ( x ( x y ) ) ") == node(X, node(X, Y))


@pytest.mark.parametrize(
    "bad,pos",
    [
        ("", 0),
        ("(", 1),
        ("(x", 2),
        ("(xy", 3),
        ("z", 0),
        ("(xy)x", 4),
        ("()", 1),
    ],
)
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.position == pos


def test_format_compact():
    assert format_monomial(X) == "x"
    assert format_monomial(node(node(X, X), Y)) == "((xx)y)"
    assert format_monomial(left_normed_power("x", 3)) == "((xx)x)"


def test_format_latex_matches_power_conventions():
    assert format_monomial(node(node(X, X), Y), "latex") == "x^{2}y"
    assert format_monomial(node(X, node(X, Y)), "latex") == "x(xy)"
    assert format_monomial(node(X, node(Y, Y)), "latex") == "xy^{2}"
    assert format_monomial(node(node(X, Y), X), "latex") == "(xy)x"
    assert format_monomial(left_normed_power("x", 4), "latex") == "x^{4}"


@pytest.mark.parametrize("n", range(1, 7))
def test_round_trip(n):
    for m in enumerate_monomials(n):
        assert parse(format_monomial(m)) == m


# -- degrees and powers


def test_left_normed_power():
    assert left_normed_power("x", 1) is X
    assert left_normed_power("x", 2) == node(X, X)
    assert left_normed_power("x", 4) == node(node(node(X, X), X), X)
    with pytest.raises(ValueError):
        left_normed_power("x", 0)


def test_degree_and_multidegree():
    m = parse("((xx)y)")
    assert m.degree == 3
    assert (m.xdeg, m.ydeg) == (2, 1)
    assert (X.xdeg, X.ydeg) == (1, 0)
    m = parse("((xy)(xy))")
    assert (m.xdeg, m.ydeg) == (2, 2)


def test_degree_is_additive():
    for n in range(2, 6):
        for m in enumerate_monomials(n):
            assert m.degree == m.left.degree + m.right.degree
            assert m.xdeg + m.ydeg == m.degree


@pytest.mark.parametrize("n", range(1, 6))
def test_mirror_is_an_anti_automorphic_involution(n):
    for m in enumerate_monomials(n):
        r = mirror(m)
        assert mirror(r) is m
        assert (r.degree, r.xdeg, r.ydeg) == (m.degree, m.xdeg, m.ydeg)
        if not m.is_leaf:
            assert r is node(mirror(m.right), mirror(m.left))
    assert mirror(parse("((xx)y)")) is parse("(y(xx))")


# -- enumeration and ordering


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_count(n):
    ms = enumerate_monomials(n)
    assert len(ms) == catalan(n - 1) * 2**n
    assert len(set(ms)) == len(ms)


def test_enumeration_counts_a_repeated_letter_once():
    assert enumerate_monomials(2, ("x", "x")) == enumerate_monomials(2, ("x",))


def test_enumeration_small():
    assert [format_monomial(m) for m in enumerate_monomials(1)] == ["x", "y"]
    assert [format_monomial(m) for m in enumerate_monomials(2)] == [
        "(xx)",
        "(xy)",
        "(yx)",
        "(yy)",
    ]
    assert len(enumerate_monomials(3)) == 16


def test_compare_basics():
    assert compare(X, Y) == -1
    assert compare(parse("(xy)"), parse("(yx)")) == -1
    # leaf left child sorts before node left child at equal degree
    assert compare(parse("(x(xy))"), parse("((xx)y)")) == -1
    assert compare(X, X) == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_compare_total_order(n):
    ms = enumerate_monomials(n)
    # enumerate returns sorted output: strict increase == antisymmetry + totality
    for a, b in zip(ms, ms[1:]):
        assert compare(a, b) == -1
        assert compare(b, a) == 1
    # transitivity on a sample triple chain
    for a, b, c in zip(ms, ms[1:], ms[2:]):
        assert compare(a, c) == -1


def test_order_is_degree_first():
    assert max(m.degree for m in enumerate_monomials(2)) == 2
    assert compare(enumerate_monomials(2)[-1], enumerate_monomials(3)[0]) == -1


# -- value semantics


def test_interning_and_hash():
    a = parse("((xx)y)")
    b = node(node(leaf("x"), leaf("x")), leaf("y"))
    assert a is b
    assert hash(a) == hash(b)
    d = {a: 1}
    assert d[b] == 1


@given(st.integers(min_value=1, max_value=5), st.randoms())
def test_json_round_trip(n, rng):
    ms = enumerate_monomials(n)
    m = ms[rng.randrange(len(ms))]
    assert monomial_from_json(monomial_to_json(m)) == m


def test_json_encoding_shape():
    assert monomial_to_json(parse("((xx)y)")) == [["x", "x"], "y"]

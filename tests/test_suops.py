import copy
import itertools
import pickle
from fractions import Fraction as F
from math import factorial

import pytest

from nabch.hopf import coproduct_monomial, is_primitive
from nabch.magma import leaf, node, parse
from nabch.series import Q, Series, exp_l, left_normed_product, project_associative
from nabch.suops import (
    Commutator,
    Gen,
    Phi,
    PrimCombo,
    SUBracket,
    _canon,
    associator,
    eval_prim,
    expr_to_latex,
    expr_to_text,
    p_series,
    parse_prim_expr,
    phi,
    su_bracket,
    su_bracket_expr,
)

GX, GY = Gen("x"), Gen("y")


def gens(n, *names):
    return [Series.generator(v, n) for v in names]


# -- associator


def test_associator_on_generators():
    x, y, z = gens(3, "x", "y", "z")
    a = associator(x, y, z)
    assert len(a.terms) == 2
    assert a == (x * y) * z - x * (y * z)


def test_associator_with_unit_vanishes():
    x, y = gens(3, "x", "y")
    assert associator(Series.one(3), x, y).is_zero()
    assert associator(x, Series.one(3), y).is_zero()
    assert associator(x, y, Series.one(3)).is_zero()


def test_associator_nonzero_on_equal_arguments():
    x = Series.generator("x", 3)
    assert not associator(x, x, x).is_zero()


# -- p operation


def test_p_on_single_generators_is_associator():
    # hand derivation: only the (1,1) Sweedler component survives
    x, y, z = gens(3, "x", "y", "z")
    assert p_series(x, y, z) == associator(x, y, z)


def test_p_with_unit_middle_vanishes():
    x, z = gens(3, "x", "z")
    u = Series.one(3) + x
    assert p_series(u, Series.one(3), z).is_zero()


def test_p_defines_bracket():
    x, y, z = gens(3, "x", "y", "z")
    assert su_bracket([x], y, z) == -p_series(x, y, z) + p_series(x, z, y)


@pytest.mark.parametrize("total", [3, 4, 5])
def test_p_is_primitive(total):
    n = total
    for m in range(1, total - 1):
        k = total - 1 - m
        if k < 1:
            continue
        for xs in itertools.product("xy", repeat=m):
            for ys in itertools.product("xy", repeat=k):
                u = left_normed_product(gens(n, *xs))
                v = left_normed_product(gens(n, *ys))
                assert is_primitive(p_series(u, v, Series.generator("y", n)))


# -- bracket


def test_bracket_empty_prefix_is_minus_commutator():
    x, y = gens(2, "x", "y")
    assert su_bracket([], x, y) == y * x - x * y


def test_bracket_tail_antisymmetry():
    n = 4
    x, y = gens(n, "x", "y")
    for prefix in ([], [x], [y], [x, y], [x, x]):
        assert (su_bracket(prefix, x, y) + su_bracket(prefix, y, x)).is_zero()
        assert su_bracket(prefix, y, y).is_zero()


def test_bracket_series_prefix_counit_part():
    n = 3
    x, y = gens(n, "x", "y")
    u = Series.one(n) * 2 + x
    got = su_bracket([u], x, y)
    want = 2 * (y * x - x * y) + su_bracket([x], x, y)
    assert got == want


def test_bracket_recursion_identity_three_letters():
    # (ubar y)z - (ubar z)y = -sum ubar_(1) <ubar_(2); y, z>
    n = 5
    for degw in range(1, 4):
        for letters in itertools.product("xyz", repeat=degw):
            ubar = leaf(letters[0])
            for l in letters[1:]:
                ubar = node(ubar, leaf(l))
            for gy in "xyz":
                for gz in "xyz":
                    ys = Series.generator(gy, n)
                    zs = Series.generator(gz, n)
                    us = Series.monomial(ubar, n)
                    lhs = (us * ys) * zs - (us * zs) * ys
                    rhs = Series.zero(n)
                    for (a, b), mult in coproduct_monomial(ubar).items():
                        sb = Series.one(n) if b is None else Series.monomial(b, n)
                        br = su_bracket([sb], ys, zs)
                        rhs = rhs + mult * (br if a is None else Series.monomial(a, n) * br)
                    assert lhs == -1 * rhs


# -- Phi


def test_phi_validates_arity():
    x, y = gens(3, "x", "y")
    with pytest.raises(ValueError):
        phi([], [x, y])
    with pytest.raises(ValueError):
        phi([x], [y])
    with pytest.raises(ValueError):
        Phi((), (GY, GY))


def test_phi_multisymmetry():
    n = 4
    x, y = gens(n, "x", "y")
    base = phi([x], [x, y, y])
    for perm in itertools.permutations([x, y, y]):
        assert phi([x], list(perm)) == base
    assert phi([x, y], [y, y]) == phi([y, x], [y, y])


def test_phi_on_equal_generators_is_p():
    n = 4
    x, y = gens(n, "x", "y")
    assert phi([x], [y, y]) == p_series(x, y, y)
    assert phi([x, x], [y, y]) == p_series(x * x, y, y)


def _phi_by_definition(xs, ys):
    """The mean of p(xbar, ybar, z) over all orderings of each argument list."""
    total = Series.zero(xs[0].truncation)
    for sx in itertools.permutations(xs):
        for sy in itertools.permutations(ys):
            total += p_series(left_normed_product(sx), left_normed_product(sy[:-1]), sy[-1])
    return total / (factorial(len(xs)) * factorial(len(ys)))


def test_phi_with_repeated_arguments_is_the_mean_over_all_orderings():
    n = 5
    x, y = gens(n, "x", "y")
    w = x + Q(1, 2) * (y * x)
    for copy_of in (lambda s: s, lambda s: Series(s.truncation, s.terms, s.constant)):
        for xs, ys in (([w, w], [y, y, x]), ([x], [y, w, y]), ([x, x], [y, y, y])):
            xs, ys = [copy_of(s) for s in xs], [copy_of(s) for s in ys]
            want = _phi_by_definition(xs, ys)
            assert not want.is_zero()
            assert phi(xs, ys) == want


def test_eval_phi_with_repeated_generators_is_the_mean_over_all_orderings():
    x, y = gens(5, "x", "y")
    want = _phi_by_definition([x, x], [y, y, y])
    assert not want.is_zero()
    assert eval_prim(Phi((GX, GX), (GY, GY, GY)), 5) == want


def test_phi_grouplike_expansion():
    # p(exp_l(x), exp_l(y), y) = sum_{m,k>=1} 1/(m! k!) Phi(x^m; y^k, y)
    n = 5
    lhs = p_series(exp_l("x", n), exp_l("y", n), Series.generator("y", n))
    rhs = Series.zero(n)
    x, y = gens(n, "x", "y")
    for m in range(1, n):
        for k in range(1, n):
            if m + k + 1 > n:
                continue
            rhs = rhs + Q(1, factorial(m) * factorial(k)) * phi([x] * m, [y] * (k + 1))
    assert lhs == rhs


def test_phi_projects_to_zero():
    n = 4
    x, y = gens(n, "x", "y")
    assert project_associative(phi([x], [y, y])).is_zero()
    assert project_associative(phi([x, x], [y, y])).is_zero()
    assert project_associative(su_bracket([x], x, y)).is_zero()
    # the only surviving bracket is the prefix-free one
    assert project_associative(su_bracket([], x, y)) == project_associative(y * x - x * y)


# -- symbolic expressions


def test_m0_normalization():
    e = su_bracket_expr([], GX, GY)
    assert e == Commutator(GY, GX)
    assert eval_prim(e, 2) == -eval_prim(Commutator(GX, GY), 2)


def test_eval_commutator():
    got = eval_prim(Commutator(GX, GY), 2)
    x, y = gens(2, "x", "y")
    assert got == x * y - y * x


def test_canon_keys_agree_up_to_sign_and_spot_antisymmetric_zeros():
    yx = Commutator(GY, GX)
    yx_y, y_yx = Commutator(yx, GY), Commutator(GY, yx)  # y_yx = -yx_y
    assert _canon(yx) == _canon(Commutator(GX, GY)) is not None
    assert _canon(su_bracket_expr([GX], GX, GY)) == _canon(su_bracket_expr([GX], GY, GX))
    assert _canon(su_bracket_expr([GX], GX, GY)) != _canon(su_bracket_expr([GY], GX, GY))
    zeros = [
        Commutator(y_yx, yx_y),
        su_bracket_expr([GX], yx_y, y_yx),
        Commutator(Commutator(yx_y, y_yx), GX),
        su_bracket_expr([Commutator(GX, GX)], GX, GY),
    ]
    for e in zeros:
        assert _canon(e) is None, e
        assert eval_prim(e, e.degree).is_zero(), e


def test_every_generator_expr_is_primitive():
    n = 5
    exprs = [
        Commutator(GX, GY),
        Commutator(GX, Commutator(GX, GY)),
        su_bracket_expr([GX], GX, GY),
        su_bracket_expr([GX, GY], GX, GY),
        su_bracket_expr([GX], Commutator(GX, GY), GY),
        Phi([GX], [GY, GY]),
        Phi([GX, GX], [GY, GY]),
        Phi([GX], [GY, GY, GY]),
    ]
    for e in exprs:
        assert e.degree <= n
        assert is_primitive(eval_prim(e, n)), expr_to_text(e)


def test_expr_text_round_trip():
    exprs = [
        GX,
        Commutator(GX, GY),
        su_bracket_expr([GX], GX, GY),
        su_bracket_expr([GX, GX], GX, Commutator(GY, GX)),
        Phi([GX], [GY, GY, GY]),
        Phi([GX, GY], [GY, Commutator(GX, GY)]),
        su_bracket_expr([Phi([GX], [GY, GY])], GX, GY),
    ]
    for e in exprs:
        assert parse_prim_expr(expr_to_text(e)) == e


@pytest.mark.parametrize(
    "value",
    [
        parse("((xy)(x(yy)))"),
        GX,
        Commutator(GY, Commutator(GX, GY)),
        SUBracket([GX, Commutator(GX, GY)], GY, GX),
        Phi([GX, GY], [GY, Commutator(GX, GY)]),
    ],
    ids=["monomial", "Gen", "Commutator", "SUBracket", "Phi"],
)
def test_pickle_and_deepcopy_return_the_interned_object(value):
    # identity is the only equality of interned trees, so a copy must come from the pool
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.deepcopy(value) is value


@pytest.mark.parametrize(
    "value",
    [
        GX,
        Commutator(GY, Commutator(GX, GY)),
        SUBracket([GX, Commutator(GX, GY)], GY, GX),
        Phi([GX, GY], [GY, Commutator(GX, GY)]),
    ],
    ids=["Gen", "Commutator", "SUBracket", "Phi"],
)
def test_pooled_expressions_are_read_only(value):
    # a pooled node is shared by every later build of it, so an edit would reach them all
    before = (value.degree, value.ydeg, value.args)
    for field in ("degree", "ydeg", *type(value).__slots__):
        with pytest.raises(AttributeError):
            setattr(value, field, 3)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert (value.degree, value.ydeg, value.args) == before
    assert type(value)(*value.args) is value


def test_parser_normalizes_prefix_free_bracket():
    assert parse_prim_expr("<x,y>") == Commutator(GY, GX)
    assert parse_prim_expr("< x , [x,y] >") == Commutator(Commutator(GX, GY), GX)


def test_parser_rejects_malformed():
    from nabch.suops import PrimParseError

    for bad in ["", "[x]", "<x;y>", "Phi(x)", "Phi(;y,y)", "w", "[x,y]z"]:
        with pytest.raises(PrimParseError):
            parse_prim_expr(bad)


def test_latex_renderings():
    assert expr_to_latex(su_bracket_expr([GX], GX, GY)) == "\\langle x;x,y\\rangle"
    assert expr_to_latex(Phi([GX], [GY, GY])) == "\\Phi(x;y,y)"
    assert expr_to_latex(Commutator(GX, GY)) == "[x,y]"


def test_prim_combo_algebra():
    a = PrimCombo.single(GX) + PrimCombo.single(GY, F(1, 2))
    b = a - PrimCombo.single(GY, F(1, 2))
    assert b == PrimCombo.single(GX)
    assert (0 * a).is_zero()
    assert a.component(1) == a
    json_data = a.to_json()
    assert PrimCombo.from_json(json_data) == a


def test_prim_combo_eval_matches_termwise():
    exprs = (
        GX,
        Commutator(GX, GY),
        su_bracket_expr([GX], GX, GY),
        su_bracket_expr([GX, GY], GY, Commutator(GX, GY)),
        Phi([GX, GY], [GY, GY]),
    )
    combo = PrimCombo(dict(zip(exprs, (3, F(-2, 3), -1, F(-5, 4), F(-7, 6)))))
    # below n = 5 some terms lie above n and drop out
    for n in range(1, 6):
        want = Series.zero(n)
        for e, c in combo.terms.items():
            want = want + c * eval_prim(e, n)
        assert combo.evaluate(n) == want
    assert PrimCombo({}).evaluate(3) == Series.zero(3)
    ints = PrimCombo({GX: 2, Commutator(GX, GY): -3}).evaluate(2)
    assert ints == 2 * Series.generator("x", 2) - 3 * eval_prim(Commutator(GX, GY), 2)
    assert {type(c) for c in ints.terms.values()} == {int}


def test_phi_divides_exactly_and_keeps_integral_quotients_ints():
    n = 4
    x, y = gens(n, "x", "y")
    total = Series.zero(n)
    for sx in itertools.permutations([x, y]):
        for sy in itertools.permutations([y, y]):
            total = total + p_series(left_normed_product(sx), sy[0], sy[1])
    got = phi([x, y], [y, y])
    assert got == total / 4
    assert {type(c) for c in got.terms.values()} == {int, F}
    assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)


def test_eval_nested_commutator_is_series_commutator():
    # [[[x,y],x], [<x; x,y>,y]], of degree 7, from Series arithmetic at truncation 8
    x, y = gens(8, "x", "y")
    xy = x * y - y * x
    a = xy * x - x * xy
    b = su_bracket([x], x, y) * y - y * su_bracket([x], x, y)
    want = a * b - b * a
    bracket = su_bracket_expr([GX], GX, GY)
    e = Commutator(Commutator(Commutator(GX, GY), GX), Commutator(bracket, GY))
    assert not want.is_zero()
    assert eval_prim(e, 8) == want
    assert eval_prim(e, 7) == want.truncate(7)
    assert eval_prim(e, 6).is_zero()

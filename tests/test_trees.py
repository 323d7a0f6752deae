from fractions import Fraction as F
from math import factorial

import pytest

from nabch.magnus import compositions, n_coeff
from nabch.series import bernoulli
from nabch.trees import (
    _level,
    _woon_children,
    bernoulli_weights,
    fuchs_level_sum,
    nj_tree_sum,
    pi_level,
    woon_level_sum,
)


def bk_over_kfact(k):
    return bernoulli(k) / factorial(k)


# -- Woon


def test_woon_root_and_children():
    assert _woon_children((1, 2)) == ((-1, 3), (1, 2, 2))
    assert _level((1, 2), _woon_children, 2) == [(-1, 3), (1, 2, 2)]
    assert _level((1, 2), _woon_children, 3) == [(1, 4), (-1, 2, 3), (-1, 3, 2), (1, 2, 2, 2)]


def test_woon_level2():
    # 1/(-1*3!) + 1/(1*2!*2!) = -1/6 + 1/4
    assert woon_level_sum(2) == F(1, 12)


def test_woon_level3_vanishes():
    assert woon_level_sum(3) == 0


def test_woon_rejects_small_k():
    with pytest.raises(ValueError):
        woon_level_sum(1)


@pytest.mark.parametrize("k", range(2, 13))
def test_woon_equals_bernoulli(k):
    assert woon_level_sum(k) == bk_over_kfact(k)


# -- Fuchs


def test_pi_tree_levels():
    assert pi_level(1) == [(1,)]
    assert pi_level(2) == [(1, 1), (2,)]
    assert pi_level(3) == [(1, 1, 1), (2, 1), (1, 2), (3,)]


def test_fuchs_figure_values():
    assert fuchs_level_sum(1, bernoulli_weights) == F(-1, 2)
    # 1/(2!2!) - 1/3!
    assert fuchs_level_sum(2, bernoulli_weights) == F(1, 12)
    # -1/(2!2!2!) + 1/(3!2!) + 1/(2!3!) - 1/4! = 0
    assert fuchs_level_sum(3, bernoulli_weights) == 0


@pytest.mark.parametrize("k", range(1, 13))
def test_fuchs_equals_bernoulli(k):
    assert fuchs_level_sum(k, bernoulli_weights) == bk_over_kfact(k)


def test_fuchs_other_sequence():
    # with c == 1 the level sum counts the 2^(k-1) nodes
    for k in range(1, 8):
        assert fuchs_level_sum(k, lambda n: F(1)) == 2 ** (k - 1)


# -- structural node counts


@pytest.mark.parametrize("k", range(1, 15))
def test_level_sizes(k):
    assert len(pi_level(k)) == 2 ** (k - 1)
    assert len(_level((1, 2), _woon_children, k)) == 2 ** (k - 1)


# -- the n_J tree


def test_nj_tree_single():
    assert nj_tree_sum((1,)) == F(-1, 2)
    assert nj_tree_sum((1,)) == n_coeff((1,))


def test_nj_tree_21():
    assert nj_tree_sum((2, 1)) == F(1, 24)


def test_nj_tree_all_ones_is_bernoulli():
    assert nj_tree_sum((1, 1, 1, 1)) == F(-1, 720)
    assert nj_tree_sum((1, 1, 1, 1)) == bernoulli(4) / factorial(4)


@pytest.mark.parametrize("w", range(1, 8))
def test_nj_tree_equals_n_coeff(w):
    for j in compositions(w):
        assert nj_tree_sum(j) == n_coeff(j), j

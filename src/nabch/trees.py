"""Bernoulli numbers and the n_J coefficients from level sums of binary trees.

Three constructions share one skeleton: each level-k node of a binary tree
carries a self-contained label, children are produced by two label rewrites,
and summing a weight over the 2^(k-1) level-k nodes recovers B_k/k!
(Woon's tree, Fuchs's PI tree) or n_J (the word-splitting tree).  One
builder, :func:`_level`, generates a level directly from the labels of the
one above; no ancestor links are kept.
"""

from __future__ import annotations

from math import factorial
from typing import Callable

from .magnus import Composition, m_coeff
from .series import Q


def _level(root, children, k: int) -> list:
    """Level k of the tree whose level 1 is the root."""
    level = [root]
    for _ in range(k - 1):
        level = [child for label in level for child in children(label)]
    return level


def _woon_children(label):
    a1, *rest = label
    left = (-a1, rest[0] + 1, *rest[1:])
    right = (a1, 2, *rest)
    return (left, right)


def woon_level_sum(k: int) -> Q:
    """Sum of 1/N! over the level-k nodes of Woon's tree; equals B_k/k! for k >= 2.

    The root is [1,2]; N! = a_1 * (a_2! ... a_r!).
    """
    if k < 2:
        raise ValueError("the Woon level identity starts at k = 2")
    total = Q(0)
    for label in _level((1, 2), _woon_children, k):
        nf = label[0]
        for a in label[1:]:
            nf *= factorial(a)
        total += Q(1, nf)
    return total


def _pi_children(label):
    a1, *rest = label
    return ((1, a1, *rest), (a1 + 1, *rest))


def pi_level(k: int) -> list[tuple[int, ...]]:
    """Level k of the general PI tree with root (1)."""
    if k < 1:
        raise ValueError("levels start at 1")
    return _level((1,), _pi_children, k)


def fuchs_level_sum(k: int, c: Callable[[int], Q]) -> Q:
    """Sum of prod c(a_i) over the level-k PI-tree nodes.

    With c(n) = -1/(n+1)! this equals B_k/k! for every k >= 1.
    """
    total = Q(0)
    for label in pi_level(k):
        term = Q(1)
        for a in label:
            term *= Q(c(a))
        total += term
    return total


def bernoulli_weights(n: int) -> Q:
    """The Fuchs sequence c(n) = -1/(n+1)!."""
    return Q(-1, factorial(n + 1))


def _word_children(blocks):
    # blocks hold 0-based positions into J; the next letter follows the last
    i = blocks[-1][-1] + 1
    return (blocks + ((i,),), blocks[:-1] + (blocks[-1] + (i,),))


def nj_tree_sum(j: Composition) -> Q:
    """n_J via the word tree: level-i children either start a new block with
    the letter x_i or concatenate it onto the last block; a node's value is
    the product of -m over its blocks, read as sub-compositions of J."""
    j = tuple(j)
    total = Q(0)
    for blocks in _level(((0,),), _word_children, len(j)):
        term = Q(1)
        for block in blocks:
            term *= -m_coeff(tuple(j[p] for p in block))
        total += term
    return total

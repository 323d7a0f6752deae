"""Coalgebra derivations, gamma_d, and the non-associative Dynkin-Specht-Wever lemma.

For a derivation d preserving primitives, gamma_d(u) = sum u_(1) \\ d(u_(2))
satisfies d(u) = sum u_(1) gamma_d(u_(2)) and the bracket recursion

    gamma_d(u a) = eps(u) d(a) + sum <u_(1); a, gamma_d(u_(2))>

for primitive a.  Applied to the degree derivation d(u) = |u| u this turns
left-normed generator words into exact combinations of primitive
operations (:func:`bracketize_word`); applied to the substitution
derivation y d/dx it produces the tangent map of the left-normed
exponential.

A derivation is its action on monomials: a function from a monomial to the
term map of its image (:func:`DEGREE`, :func:`y_partial_x`).
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType

from . import hopf
from .magma import Y, Monomial, is_left_normed_word, leaf, node, word_letters
from .series import Series, _accumulate, _extend, _normalise
from .suops import Gen, PrimCombo, _add_bracket, su_bracket_expr


def DEGREE(m: Monomial) -> dict:
    """The degree derivation on a monomial: d(u) = |u| u."""
    return {m: m.degree}


@cache
def y_partial_x(m: Monomial) -> MappingProxyType:
    """y d/dx on a monomial: the Leibniz extension of x -> y, y -> 0."""
    if m.is_leaf:
        return _normalise({Y: 1} if m.var == "x" else ())
    return _normalise(
        [(node(t, m.right), c) for t, c in y_partial_x(m.left).items()]
        + [(node(m.left, t), c) for t, c in y_partial_x(m.right).items()]
    )


def apply(d, s: Series) -> Series:
    """Leibniz extension of d to a series; constants map to zero."""
    return Series(s.truncation, _extend(d, s.terms))


@cache
def _gamma_monomial(d, u: Monomial) -> MappingProxyType:
    """gamma_d(u) = sum u_(1) \\ d(u_(2)) as an exact coefficient map."""
    out: dict = {}
    for (a, b), mult in hopf.coproduct_monomial(u).items():
        if b is None:
            continue  # d(1) = 0
        for t, c in d(b).items():
            _accumulate(out, hopf.left_divide_monomial(a, t).items(), mult * c)
    return _normalise(out)


def gamma(d, s: Series) -> Series:
    """Linear extension of gamma_d; gamma_d(1) = 0."""
    return Series(s.truncation, _extend(lambda m: _gamma_monomial(d, m), s.terms))


def dsw_identity_check(u, a: str, d) -> bool:
    """Evaluate both sides of the bracket recursion exactly, at truncation
    deg(u) + 1 (at least 2); u may be None (the unit)."""
    ga = leaf(a)
    n = max((0 if u is None else u.degree) + 1, 2)
    if u is None:
        a_series = Series.generator(a, n)
        return gamma(d, a_series) == apply(d, a_series)
    lhs = gamma(d, Series.monomial(node(u, ga), n))
    # eps(u) = 0 for a monomial u, and a bracket <p; a, g> has no constant term
    rhs: dict = {}
    for (p, q), mult in hopf.coproduct_monomial(u).items():
        gq = None if q is None else _gamma_monomial(d, q)  # gamma_d(1) = 0
        if gq:
            _add_bracket(rhs, {p: 1}, {ga: 1}, gq, n, mult)
    return lhs == Series(n, rhs)


@cache
def _bracketize(letters: tuple[str, ...]) -> PrimCombo:
    if len(letters) == 1:
        return PrimCombo.single(Gen(letters[0]))
    init, last = letters[:-1], letters[-1]
    pairs = []
    k = len(init)
    # Sweedler components of a left-normed word are the subword pairs
    for mask in range(1 << k):
        prefix = tuple(init[i] for i in range(k) if mask >> i & 1)
        rest = tuple(init[i] for i in range(k) if not mask >> i & 1)
        if not rest:
            continue  # gamma_d(1) = 0
        inner = _bracketize(rest)
        pref_exprs = tuple(Gen(g) for g in prefix)
        for e, c in inner.terms.items():
            pairs.append((su_bracket_expr(pref_exprs, Gen(last), e), c))
    return PrimCombo(pairs)


def bracketize_word(w: Monomial) -> PrimCombo:
    """Symbolic gamma_d(w) for the degree derivation d and a left-normed
    generator word w.

    eval_prim of the result equals gamma(DEGREE, w) exactly.
    """
    if not is_left_normed_word(w):
        raise ValueError(f"{w!r} is not a left-normed word of generators")
    return _bracketize(word_letters(w))

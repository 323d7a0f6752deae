"""Truncated formal power series over exact rationals in the free magma algebra.

A :class:`Series` models k{{x,y}} modulo terms of degree > N: a sparse map
monomial -> exact rational (an int or a Fraction) plus an explicit constant
term.  :class:`AssocSeries` is the associative counterpart on flat words,
used for the Dynkin cross-check.

Convention fixed here and relied on by every downstream coefficient:
Bernoulli numbers use B_1 = -1/2 (the "first" convention, from the defining
recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0).  The other convention silently
breaks the tree-indexed logarithm.
"""

from __future__ import annotations

import itertools
import json
import warnings
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, lcm
from operator import add, attrgetter, itemgetter
from types import MappingProxyType

from .magma import (
    Monomial,
    enumerate_monomials,
    format_monomial,
    leaf,
    monomial_from_json,
    node,
    word_letters,
)

Q = Fraction


class TruncationMismatchWarning(UserWarning):
    """Operands carried different truncation degrees; the minimum was used."""


def _join_truncation(a, b):
    """The truncation of a result of operands truncated at a and b, which
    are both None for a class without truncation."""
    if a == b:
        return a
    warnings.warn(
        f"mixing truncations {a} and {b}; result truncated at {min(a, b)}",
        TruncationMismatchWarning,
        stacklevel=3,
    )
    return min(a, b)


# ---------------------------------------------------------------------------
# The sparse exact linear-combination core.  Series, AssocSeries, TensorSeries
# and PrimCombo are finite rational combinations over a graded basis, and
# subclasses of Combination, which does their shared work through the
# functions below; each class declares only its keys' degree, product, order
# and rendering.

_EXACT = (int, Fraction)


def _exact(c):
    """The coefficient rule of :class:`Combination` applied to c."""
    return c if type(c) in _EXACT else Q(c)


def _normalise(terms, cap=None, degree=None) -> MappingProxyType:
    """The normalised terms of an iterable of (key, coefficient) pairs or a
    mapping: repeated keys merged, zeros dropped, and keys of degree above
    ``cap`` dropped (``cap`` None keeps every key).  ``degree(key)`` gives a
    key's degree and defaults to ``key.degree``.

    The result is read-only, so a cached value cannot be edited by a caller.
    """
    if cap is not None and cap < 1:
        raise ValueError("truncation degree must be >= 1")
    clean = {}
    if terms:
        for k, c in (terms.items() if isinstance(terms, (dict, MappingProxyType)) else terms):
            if cap is not None and (k.degree if degree is None else degree(k)) > cap:
                continue
            if type(c) not in _EXACT:
                c = Q(c)
            if c:
                prev = clean.get(k)
                if prev is None:
                    clean[k] = c
                else:
                    c = prev + c
                    if c:
                        clean[k] = c
                    else:
                        del clean[k]
    return MappingProxyType(clean)


def _accumulate(out: dict, pairs, scale=None) -> dict:
    """Add ``scale * c`` (``c`` if ``scale`` is None) into ``out`` for every
    (key, c) of ``pairs``, in place; zeros are left for :func:`_normalise`."""
    for k, c in pairs:
        if scale is not None:
            c = scale * c
        prev = out.get(k)
        out[k] = c if prev is None else prev + c
    return out


def _extend(f, terms) -> dict:
    """The sum of ``c * f(k)`` over the (k, c) of the map ``terms``: the
    linear extension of ``f``, a map from a key to a term map.  Zeros are
    left for :func:`_normalise`."""
    out: dict = {}
    for k, c in terms.items():
        _accumulate(out, f(k).items(), c)
    return out


def _product(p, q, cap: int, join, degree=None) -> dict:
    """The sum of ``ca * cb`` at ``join(a, b)`` over the pairs (a, ca) of ``p``
    and (b, cb) of ``q`` whose degrees add up to at most ``cap``; zeros are
    left for :func:`_normalise`.  ``degree`` is as in :func:`_normalise`.
    ``q`` is sorted by degree once, so the inner loop stops at the first key
    too heavy for ``a``."""
    if degree is None:
        degree = attrgetter("degree")
    qs = sorted(((degree(b), b, cb) for b, cb in q.items()), key=itemgetter(0))
    out = {}
    for a, ca in p.items():
        room = cap - degree(a)
        for db, b, cb in qs:
            if db > room:
                break
            k = join(a, b)
            prev = out.get(k)
            out[k] = ca * cb if prev is None else prev + ca * cb
    return out


def _numerators(terms) -> tuple[dict, int]:
    """A map of exact coefficients as (int numerators, one denominator): the
    denominator L is the lcm of the coefficients' denominators, and a
    coefficient c becomes the int c * L.  :func:`_coefficients` inverts it."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _coefficients(nums: dict, den: int):
    """The (key, v / den) pairs of the int numerators v of ``nums``, zeros
    dropped, for a combination's constructor to take without an intermediate
    map.  Over the denominator 1 the ints are kept, as :class:`Combination`
    keeps them; otherwise each term is one Fraction."""
    if den == 1:
        return ((k, v) for k, v in nums.items() if v)
    return ((k, Q(v, den)) for k, v in nums.items() if v)


class Combination:
    """A finite rational combination over a graded basis: a read-only map
    ``terms`` from basis key to nonzero coefficient, a truncation degree
    (None where the class has none) and a constant term (0 where it has none).

    A coefficient is an ``int`` or a ``Fraction``, never a float.  The rule
    is applied where coefficients enter, by :func:`_normalise` (terms) and
    :func:`_exact` (the constant and scalar factors): an int or a Fraction is
    stored and multiplied as given, anything else goes through ``Fraction()``
    (a float converts exactly, a combination of another class raises
    TypeError).  Integral results therefore stay ints; a ``/`` that can meet
    a coefficient must have a Fraction operand, since ``int / int`` is a float.

    A subclass declares, all read from the class:

    - ``_degree``: key -> degree; None keeps :func:`_normalise`'s fast
      ``key.degree`` path
    - ``_join``: the product of two keys; None where keys do not multiply
    - ``_order``: key -> sort key of the canonical order
    - ``_key_text`` and ``_key_latex``: key -> text; without a LaTeX
      renderer the text one serves
    - ``_truncated``: False for a class without truncation, whose
      constructor takes the terms alone: ``PrimCombo(terms)``

    Combinations of different classes never compare equal, add or multiply.
    The fields are read-only once built, as a cached value must be; copies
    and pickles rebuild through the constructor.
    """

    __slots__ = ("truncation", "constant", "terms")

    _degree = None
    _join = None
    _order = None
    _key_text = repr
    _key_latex = None
    _truncated = True

    def __init__(self, truncation=None, terms=None, constant=0):
        if not self._truncated:
            truncation, terms = None, truncation
        elif truncation is None:
            raise TypeError(f"{type(self).__name__} needs a truncation degree")
        _set_terms(self, _normalise(terms, truncation, type(self)._degree))
        _set_truncation(self, truncation)
        _set_constant(self, _exact(constant))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        if self._truncated:
            return (type(self), (self.truncation, dict(self.terms), self.constant))
        return (type(self), (dict(self.terms),))

    def _new(self, truncation, terms, constant):
        """A combination of self's class with the given fields."""
        if self._truncated:
            return type(self)(truncation, terms, constant)
        return type(self)(terms)

    def coefficient(self, key):
        """Stored coefficient or 0; queries above the truncation are unreliable
        and therefore rejected."""
        if self.truncation is not None:
            d = key.degree if self._degree is None else type(self)._degree(key)
            if d > self.truncation:
                raise ValueError(
                    f"degree {d} exceeds truncation {self.truncation}; coefficient unknown"
                )
        return self.terms.get(key, 0)

    def items(self):
        """(key, coefficient) pairs in canonical order."""
        terms = self.terms
        return [(k, terms[k]) for k in sorted(terms, key=type(self)._order)]

    def is_zero(self) -> bool:
        return not self.terms and not self.constant

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.constant == other.constant
            and self.terms == other.terms
        )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        n = _join_truncation(self.truncation, other.truncation)
        out = _accumulate(self.terms.copy(), other.terms.items())
        return self._new(n, out, self.constant + other.constant)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._new(self.truncation, {k: -c for k, c in self.terms.items()}, -self.constant)

    def __mul__(self, other):
        """The degree-capped product of two combinations of a class whose keys
        multiply, constants included; otherwise scaling by a number."""
        cls = type(self)
        if type(other) is not cls or cls._join is None:
            return self._scale(other)
        n = _join_truncation(self.truncation, other.truncation)
        out = _product(self.terms, other.terms, n, cls._join, cls._degree)
        if self.constant:
            _accumulate(out, other.terms.items(), self.constant)
        if other.constant:
            _accumulate(out, self.terms.items(), other.constant)
        return self._new(n, out, self.constant * other.constant)

    def _scale(self, c):
        c = _exact(c)
        terms = {k: c * v for k, v in self.terms.items()}
        return self._new(self.truncation, terms, c * self.constant)

    __rmul__ = _scale

    def to_text(self, latex: bool = False) -> str:
        cls = type(self)
        render = cls._key_latex if latex and cls._key_latex else cls._key_text
        return _render_terms(self.items(), render, latex, self.constant)

    def __repr__(self):
        return self.to_text()


# the slots' own setters, which the read-only __setattr__ does not reach
_set_terms = Combination.terms.__set__
_set_truncation = Combination.truncation.__set__
_set_constant = Combination.constant.__set__


class Series(Combination):
    """Sparse truncated series over free-magma monomials; ``terms`` is
    read-only."""

    __slots__ = ()

    _join = node
    _order = attrgetter("key")

    _key_latex = partial(format_monomial, style="latex")

    @classmethod
    def zero(cls, truncation: int) -> "Series":
        return cls(truncation)

    @classmethod
    def one(cls, truncation: int) -> "Series":
        return cls(truncation, constant=1)

    @classmethod
    def generator(cls, var: str, truncation: int) -> "Series":
        return cls(truncation, {leaf(var): 1})

    @classmethod
    def monomial(cls, m: Monomial, truncation: int, coeff=1) -> "Series":
        return cls(truncation, {m: coeff})

    def homogeneous(self, d: int) -> "Series":
        if d == 0:
            return Series(self.truncation, constant=self.constant)
        return Series(self.truncation, {m: c for m, c in self.terms.items() if m.degree == d})

    def truncate(self, n: int) -> "Series":
        return Series(n, self.terms, self.constant)

    def map_monomials(self, f) -> "Series":
        """Linear extension of a monomial map f: Monomial -> Monomial.

        No code of the package calls it; bench/spans.py wraps it by name."""
        return Series(self.truncation, ((f(m), c) for m, c in self.terms.items()), self.constant)

    def __truediv__(self, other):
        return self._scale(1 / Q(other))

    # bound in the class body too: bench/spans.py wraps what it finds in Series.__dict__
    __eq__ = Combination.__eq__
    __add__ = Combination.__add__
    __sub__ = Combination.__sub__
    __neg__ = Combination.__neg__
    __mul__ = Combination.__mul__
    __rmul__ = Combination.__rmul__


def left_normed_product(factors) -> Series:
    """((f1 f2) f3) ... fk of a nonempty sequence of series."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product has no Series home; use the unit explicitly")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# Bernoulli numbers and the tree-indexed logarithm coefficients.

@cache
def bernoulli(n: int) -> Q:
    """B_n in the B_1 = -1/2 convention.

    The recurrence reads B_0..B_{n-1} in ascending order, so a cold call
    fills the memo from below and recurses one level deep."""
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n == 0:
        return Q(1)
    return -sum((comb(n + 1, k) * bernoulli(k) for k in range(n)), Q(0)) / (n + 1)


def _one_variable(m: Monomial) -> None:
    if len(m.vars) != 1:
        raise ValueError(f"{m!r} mixes generators; a one-variable monomial is required")


def _spine(m: Monomial) -> list[Monomial]:
    """tau_1 .. tau_k of the unique decomposition (((v tau_1) tau_2) ...) tau_k."""
    parts = []
    while not m.is_leaf:
        parts.append(m.right)
        m = m.left
    parts.reverse()
    return parts


@cache
def tau_factorial(m: Monomial) -> int:
    """tau! = k! tau_1! ... tau_k! over the left-spine decomposition; x! = 1."""
    _one_variable(m)
    parts = _spine(m)
    out = factorial(len(parts))
    for p in parts:
        out *= tau_factorial(p)
    return out


@cache
def b_tau(m: Monomial) -> Q:
    """B_tau = B_k B_{tau_1} ... B_{tau_k}; B_x = 1."""
    _one_variable(m)
    parts = _spine(m)
    out = bernoulli(len(parts))
    for p in parts:
        out *= b_tau(p)
    return out


@cache
def log_l_series(n: int) -> Series:
    """log_l(1+x) = sum_tau (B_tau / tau!) tau, truncated at degree n."""
    terms = {}
    for d in range(1, n + 1):
        for m in enumerate_monomials(d, ("x",)):
            terms[m] = b_tau(m) / tau_factorial(m)
    return Series(n, terms)


# ---------------------------------------------------------------------------
# Substitution, exponentials, logarithm.


def substitute(f: Series, u: Series) -> Series:
    """Replace every leaf of f's (one-variable) monomials by u, multilinearly.

    u must have zero constant term; f's constant passes through.

    The arithmetic is on ints.  With u = U / L over one denominator, the
    image of a monomial m is an int map over L^deg(m), and with f = F / D the
    sum over f's terms goes over the one denominator D L^t, t the top degree
    of f; each output term is one Fraction.
    """
    if u.constant:
        raise ValueError("substitution target must have zero constant term")
    fvars = set()
    for m in f.terms:
        fvars.update(m.vars)
    if len(fvars) > 1:
        raise ValueError("substitution source must be a one-variable series")
    n = _join_truncation(f.truncation, u.truncation)
    un, den = _numerators(u.terms)
    fn, fden = _numerators(f.terms)
    top = max((m.degree for m in fn), default=0)
    memo: dict = {}
    out: dict = {}
    for m, c in fn.items():
        _accumulate(out, _subst(m, n, un, memo).items(), c * den ** (top - m.degree))
    del memo  # free the partial products before the Fractions are built
    return Series(n, _coefficients(out, fden * den**top), f.constant)


def _subst(m: Monomial, budget: int, u: dict, memo: dict) -> dict:
    """The terms of degree at most ``budget`` of m with every leaf replaced
    by the term map u."""
    # every leaf contributes at least degree 1, so a subtree's budget is the
    # total minus its siblings' leaf counts
    if budget < m.degree:
        return {}
    key = (m, budget)
    got = memo.get(key)
    if got is not None:
        return got
    if m.is_leaf:
        out = {t: c for t, c in u.items() if t.degree <= budget}
    else:
        dl = _subst(m.left, budget - m.right.degree, u, memo)
        dr = _subst(m.right, budget - m.left.degree, u, memo)
        out = _product(dl, dr, budget, node)
    memo[key] = out
    return out


def _exp(p, n, power_step) -> Series:
    if isinstance(p, str):
        p = Series.generator(p, n)
    if p.constant:
        raise ValueError("exponential argument must have zero constant term")
    if p.truncation != n:
        p = p.truncate(min(p.truncation, n))
        n = p.truncation
    out = Series.one(n)
    pw = Series.one(n)
    fact = 1
    for k in range(1, n + 1):
        pw = power_step(pw, p)
        if pw.is_zero():
            break
        fact *= k
        out = out + pw / fact
    return out


def exp_l(p, n: int) -> Series:
    """sum 1/k! (((pp)p)...)p, the left-normed exponential."""
    return _exp(p, n, lambda pw, p_: pw * p_)


def exp_r(p, n: int) -> Series:
    """sum 1/k! p(p(...(pp))), the right-normed exponential."""
    return _exp(p, n, lambda pw, p_: p_ * pw)


def log_l(s: Series) -> Series:
    """Compositional inverse of exp_l: substitute log_l(1+x) into s - 1."""
    if s.constant != 1:
        raise ValueError("log_l needs constant term 1")
    return substitute(log_l_series(s.truncation), s - Series.one(s.truncation))


# ---------------------------------------------------------------------------
# Associative projection and the Dynkin series.


class AssocSeries(Combination):
    """Truncated series on flat words over {x, y}; ``terms`` is read-only."""

    __slots__ = ()

    _degree = len
    _join = add
    _key_text = str

    @staticmethod
    def _order(w):
        return (len(w), w)


@cache
def _word(m: Monomial) -> str:
    return "".join(word_letters(m))


def project_associative(s: Series) -> AssocSeries:
    """Forget parentheses; a unital algebra homomorphism onto k<<x,y>>."""
    return AssocSeries(s.truncation, ((_word(m), c) for m, c in s.terms.items()), s.constant)


def _gamma_word(word: str, n: int) -> dict[str, Q]:
    """gamma(l1...lk) = [...[[l1,l2],l3]...,lk] expanded into words."""
    out = {word[0]: Q(1)}
    for ch in word[1:]:
        letter = {ch: 1}
        ch_w = _product(letter, out, n, add, len)
        out = _accumulate(_product(out, letter, n, add, len), ch_w.items(), -1)  # w ch - ch w
    return out


@cache
def _distributions(total: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """All ways to write ``total`` as an ordered sum of ``slots`` values >= 0."""
    if slots == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _distributions(total - first, slots - 1):
            out.append((first,) + rest)
    return tuple(out)


def dynkin_bch(n: int) -> AssocSeries:
    """The classical Dynkin expansion of log(exp(x)exp(y)) in the word basis.

    Independent of the non-associative pipeline; used as its projection
    oracle.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    out: dict[str, Q] = {}
    for total in range(1, n + 1):
        for blocks in range(1, total + 1):
            for spare in _distributions(total - blocks, blocks):
                # split each block, of size q + 1, into x^r y^s with r + s = q + 1
                choices = [[(r, q + 1 - r) for r in range(q + 2)] for q in spare]
                for pick in itertools.product(*choices):
                    coeff = Q((-1) ** (blocks - 1), blocks) / total
                    word = ""
                    for r, s in pick:
                        coeff /= factorial(r) * factorial(s)
                        word += "x" * r + "y" * s
                    _accumulate(out, _gamma_word(word, n).items(), coeff)
    return AssocSeries(n, out)


# ---------------------------------------------------------------------------
# Rendering and JSON.


def _render_terms(pairs, render_key, latex: bool, constant=0) -> str:
    """Text of a combination: the constant, if nonzero, then the (key,
    coefficient) ``pairs`` in the order given."""
    if constant:
        pairs = [(None, constant)] + pairs
    chunks = []
    for key, c in pairs:
        neg = c < 0
        mag = -c if neg else c
        if key is None:
            body = _coeff_str(mag, latex)
        else:
            cs = "" if mag == 1 else _coeff_str(mag, latex)
            sep = "" if latex or not cs else " "
            body = f"{cs}{sep}{render_key(key)}"
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks) if chunks else "0"


def _coeff_str(c: Q, latex: bool) -> str:
    if latex and c.denominator != 1:
        return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"
    return str(c)


def series_json_text(s: Series) -> str:
    """The series as JSON text, {"truncation", "constant", "terms"}, laid out
    as ``json.dumps`` lays it out; each term is {"monomial", "coeff"}, with
    the monomial as nested two-element arrays (``magma.monomial_to_json``).

    The series' monomials share most of their subtrees, and the pool interns
    them, so a memo local to the call encodes each distinct subtree once and
    a product's text joins its factors' texts.  The exact rationals print as
    digits, "-" and "/", which JSON strings hold unescaped."""
    memo = {}

    def encode(m):
        text = memo.get(m)
        if text is None:
            text = json.dumps(m.var) if m.is_leaf else f"[{encode(m.left)}, {encode(m.right)}]"
            memo[m] = text
        return text

    terms = ", ".join(f'{{"monomial": {encode(m)}, "coeff": "{c}"}}' for m, c in s.items())
    return f'{{"truncation": {s.truncation}, "constant": "{s.constant}", "terms": [{terms}]}}'


def series_to_json(s: Series) -> dict:
    return json.loads(series_json_text(s))


def series_from_json(data: dict) -> Series:
    return Series(
        int(data["truncation"]),
        {monomial_from_json(t["monomial"]): t["coeff"] for t in data["terms"]},
        data.get("constant", 0),
    )

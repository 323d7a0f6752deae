"""Non-associative Hopf structure on truncated series.

Comultiplication is the algebra-morphism extension of x -> x(x)1 + 1(x)x,
the counit reads off the constant term, and the left/right divisions are
the unique bilinear operations satisfying

    sum u_(1) \\ (u_(2) v) = eps(u) v      sum (v u_(1)) / u_(2) = eps(u) v.

There is no antipode here: the divisions are grounded on the unit component
of the coproduct instead, which is what makes them total in the
non-associative setting.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType

from .magma import Monomial, mirror, node
from .series import Combination, Series, _accumulate, _extend, _join_truncation, _product

# The unit 1 is the key None in every term map, with Delta(1) = 1 (x) 1.
# Tensor-square keys are (left, right) with None standing for the unit slot.
TensorKey = tuple


def _graft(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return node(a, b)


def _degree(m) -> int:
    """The degree of a monomial, 0 for the unit None."""
    return 0 if m is None else m.degree


def _key_degree(k: TensorKey) -> int:
    return _degree(k[0]) + _degree(k[1])


def _tensor_join(k1: TensorKey, k2: TensorKey) -> TensorKey:
    """(a1 (x) b1)(a2 (x) b2) = a1a2 (x) b1b2 on tensor-pair keys."""
    return (_graft(k1[0], k2[0]), _graft(k1[1], k2[1]))


def _pair(a, b) -> TensorKey:
    return (a, b)


def _with_unit(s: Series):
    """s's terms, plus its constant at the unit key None when it is nonzero."""
    return {None: s.constant, **s.terms} if s.constant else s.terms


class TensorSeries(Combination):
    """Sparse element of the tensor square, truncated on total pair degree;
    ``terms`` is read-only."""

    __slots__ = ()

    _degree = _key_degree
    _join = _tensor_join

    @staticmethod
    def _order(k: TensorKey):
        a, b = k
        ka = (0,) if a is None else (1,) + a.key
        kb = (0,) if b is None else (1,) + b.key
        return (_key_degree(k), ka, kb)

    @staticmethod
    def _key_text(k: TensorKey) -> str:
        return "(x)".join("1" if m is None else repr(m) for m in k)


@cache
def coproduct_monomial(m) -> MappingProxyType:
    """Delta(m) for m a monomial or the unit None, as an exact integer
    combination of tensor pairs, read-only because it is cached."""
    if m is None:
        return MappingProxyType({(None, None): 1})
    if m.is_leaf:
        return MappingProxyType({(m, None): 1, (None, m): 1})
    cl, cr = coproduct_monomial(m.left), coproduct_monomial(m.right)
    return MappingProxyType(_product(cl, cr, m.degree, _tensor_join, _key_degree))


def coproduct(s: Series) -> TensorSeries:
    """Delta(s), truncated on total pair degree."""
    return TensorSeries(s.truncation, _extend(coproduct_monomial, _with_unit(s)))


def counit(s: Series):
    return s.constant


def left_divide_monomial(u, v) -> MappingProxyType:
    """u \\ v for u and v each a monomial or the unit None, read-only.

    1 \\ v = v, not memoised: building it costs no more than a lookup.
    Otherwise by induction on the degree of u:
    u \\ v = -uv - sum' u'_(1) \\ (u'_(2) v) over proper Sweedler components.
    """
    if u is None:
        return MappingProxyType({v: 1})
    return _left_divide(u, v)


@cache
def _left_divide(u: Monomial, v) -> MappingProxyType:
    out = {_graft(u, v): -1}
    for (a, b), c in coproduct_monomial(u).items():
        if a is not None and b is not None:  # a proper Sweedler component
            _accumulate(out, _left_divide(a, _graft(b, v)).items(), -c)
    return MappingProxyType({t: k for t, k in out.items() if k})


def right_divide_monomial(v, u) -> MappingProxyType:
    """v / u for v and u each a monomial or the unit None, read-only: the
    left division of the opposite magma, v / u = mirror(mirror(u) \\ mirror(v)).

    Not memoised: it mirrors the memoised left quotient back term by term,
    and a memo of its own would hold a second copy of every quotient.
    """
    if u is None:
        return MappingProxyType({v: 1})
    quotient = _left_divide(mirror(u), None if v is None else mirror(v))
    return MappingProxyType({mirror(t): k for t, k in quotient.items()})


def _divide(p: Series, q: Series, monomial_division) -> Series:
    """The bilinear extension of ``monomial_division`` to series, their
    constants entering at the unit None: sum of c d monomial_division(m, t)
    over the terms c m of p and d t of q."""
    n = _join_truncation(p.truncation, q.truncation)
    pairs = _product(_with_unit(p), _with_unit(q), n, _pair, _degree)
    out = _extend(lambda k: monomial_division(*k), pairs)
    constant = out.pop(None, 0)  # 1 \ 1 = 1 / 1 = 1
    return Series(n, out, constant)


def left_divide(u: Series, v: Series) -> Series:
    """u \\ v, the bilinear extension of :func:`left_divide_monomial`."""
    return _divide(u, v, left_divide_monomial)


def right_divide(v: Series, u: Series) -> Series:
    """v / u, the bilinear extension of :func:`right_divide_monomial`."""
    return _divide(v, u, right_divide_monomial)


def is_primitive(s: Series) -> bool:
    """Delta(s) = s(x)1 + 1(x)s and eps(s) = 0, up to the truncation."""
    if s.constant:
        return False
    terms = s.terms.items()
    expected = [((m, None), c) for m, c in terms] + [((None, m), c) for m, c in terms]
    return coproduct(s) == TensorSeries(s.truncation, expected)


def is_grouplike(s: Series) -> bool:
    """Delta(s) = s(x)s and eps(s) = 1, up to the truncation."""
    if s.constant != 1:
        return False
    terms = _with_unit(s)
    expected = _product(terms, terms, s.truncation, _pair, _degree)
    return coproduct(s) == TensorSeries(s.truncation, expected)


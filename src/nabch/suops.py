"""Shestakov-Umirbaev primitive operations.

The building block is the p-operation

    p(U, V, Z) = sum (U_(1) V_(1)) \\ (U_(2), V_(2), Z)

with (a,b,c) = (ab)c - a(bc) the associator; from it the bracket
<x1,...,xm; y, z> and the fully symmetrized Phi are assembled.  All of
them take arbitrary truncated series as arguments; the multilinear
generator forms are special cases.  The m = 0 bracket is the unit prefix,
<1; y, z> = -[y,z]: p ignores the unit, the key None of a term map, whose
counit part gives the commutator, so one term-map kernel computes every
bracket and commutator.  Its pieces: :func:`_add_p` adds each associator
(bd)t - b(dt) of p at its left divisor ac into a quotient map, which
:func:`_unfold` divides out once per distinct quotient; :func:`_add_commutator`
adds ab and -ba in one loop; :func:`_add_bracket` (term maps) and
:func:`_add_expr` (expressions) assemble brackets, commutators and Phi.

The same operations also exist symbolically as :class:`PrimExpr` trees with
an exact evaluator, plus a round-trip text syntax:

    x    [A,B]    <A1,...,Am; B, C>    Phi(A1,...,Am; B1,...,Bk)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from operator import itemgetter
from types import MappingProxyType

from . import hopf
from .magma import ParseError, leaf, node
from .series import (
    Combination,
    Series,
    _accumulate,
    _coefficients,
    _extend,
    _numerators,
    _product,
    left_normed_product,
)


def associator(a: Series, b: Series, c: Series) -> Series:
    return (a * b) * c - a * (b * c)


def _proper(terms) -> dict:
    """The Sweedler pairs of Delta(terms) whose right slot is not the unit."""
    out = _extend(hopf.coproduct_monomial, terms)
    return {k: c for k, c in out.items() if c and k[1] is not None}


def _add_p(quotients: dict, proper_u, proper_v, z, n: int, scale) -> dict:
    """Add scale * p(U, V, z) at truncation n into the quotient map
    ``quotients`` and return it, from the proper coproducts of U and V and the
    terms of z.  An associator with a unit slot vanishes, so only the pairs
    (a, b) of Delta(U) and (c, d) of Delta(V) with b and d not the unit
    contribute, each with every term t of z: (bd)t - b(dt) at the divisor ac.
    Degrees are read once and the loops, sorted by degree, stop at the first
    term too heavy."""
    zs = sorted(((t.degree, t, scale * ct) for t, ct in z.items()), key=itemgetter(0))
    us = [(hopf._degree(a) + b.degree, a, b, cu) for (a, b), cu in proper_u.items()]
    us.sort(key=itemgetter(0))
    for (c, d), cv in proper_v.items():
        room = n - hopf._degree(c) - d.degree
        dts = [(dt, t, node(d, t), cv * ct) for dt, t, ct in zs if dt <= room]
        for du, a, b, cu in us:
            if not dts or du + dts[0][0] > room:
                break
            args = quotients.setdefault(hopf._graft(a, c), {})
            bd = node(b, d)
            for dt, t, dt_node, k in dts:
                if du + dt > room:
                    break
                k *= cu
                m = node(bd, t)
                args[m] = args.get(m, 0) + k
                m = node(b, dt_node)
                args[m] = args.get(m, 0) - k
    return quotients


def _unfold(quotients: dict) -> dict:
    """The term map of the quotient map ``quotients``, which sends a left divisor
    w (a monomial, or the unit None) to a term map q_w and stands for the sum of
    the w \\ q_w, each distinct quotient divided once; built in q_None."""
    out = quotients.setdefault(None, {})
    for w, args in quotients.items():
        if w is not None:
            for v, c in args.items():
                if c:
                    _accumulate(out, hopf._left_divide(w, v).items(), c)
    return out


def _add_commutator(out: dict, a, b, n: int, scale) -> dict:
    """Add scale * [a, b] = scale * (ab - ba) at truncation n into the term map
    ``out`` and return it, for the term maps a and b, in one loop."""
    for s, cs in a.items():
        for t, ct in b.items():
            if s.degree + t.degree <= n:
                k = scale * cs * ct
                m = node(s, t)
                out[m] = out.get(m, 0) + k
                m = node(t, s)
                out[m] = out.get(m, 0) - k
    return out


def _add_mean_p(out: dict, propers_x, tails, n: int, scale) -> dict:
    """Add scale * the mean of p(X, Y, z) into the term map ``out`` and return
    it, over the proper coproducts X of ``propers_x`` and the (proper coproduct
    Y, terms z) of ``tails``; an integral quotient stays an int for later sums."""
    total: dict = {}
    for proper_x in propers_x:
        for proper_y, z in tails:
            _add_p(total, proper_x, proper_y, z, n, scale)
    k = len(propers_x) * len(tails)
    for m, c in _unfold(total).items():
        out[m] = out.get(m, 0) + (c // k if c % k == 0 else Fraction(c, k))
    return out


def _add_bracket(out: dict, u, y, z, n: int, scale=1) -> dict:
    """Add scale * <u; y, z> = scale * (p(u, z, y) - p(u, y, z) + eps(u) [z, y])
    at truncation n into the term map ``out`` and return it, for the term maps
    u, y, z, eps(u) being u's coefficient at the unit None.  With
    :func:`_add_expr`, the only code that computes a bracket or a commutator:
    [a, b] is <1; b, a>.  Zeros are left for the caller."""
    proper_u = _proper(u)
    if proper_u:  # the unit has none, so a commutator skips p
        quotients = {None: out}
        _add_p(quotients, proper_u, _proper(z), y, n, scale)
        _add_p(quotients, proper_u, _proper(y), z, n, -scale)
        _unfold(quotients)
    unit = u.get(None)
    if unit:
        _add_commutator(out, z, y, n, scale * unit)
    return out


def p_series(u: Series, v: Series, z: Series) -> Series:
    """The primitive p-operation on series arguments."""
    n = min(u.truncation, v.truncation, z.truncation)
    return Series(n, _unfold(_add_p({}, _proper(u.terms), _proper(v.terms), z.terms, n, 1)))


def su_bracket(prefix, y: Series, z: Series) -> Series:
    """<p1,...,pm; y, z>; the empty prefix is -[y,z].  A one-series prefix u
    is the series bracket <u; y, z>, whose counit part contributes
    eps(u) * (-[y,z]), since p ignores it."""
    prefix = list(prefix)
    u = left_normed_product(prefix) if prefix else Series.one(min(y.truncation, z.truncation))
    n = min(u.truncation, y.truncation, z.truncation)
    return Series(n, _add_bracket({}, hopf._with_unit(u), y.terms, z.terms, n))


def _orderings(args) -> list:
    """The distinct orderings of args, told apart by argument identity."""
    return list({tuple(map(id, o)): o for o in permutations(args)}.values())


def phi(xs, ys) -> Series:
    """Phi, the symmetrization of p over both argument lists.

    xs has length m >= 1 and ys length n+1 >= 2; Phi is the mean of p over
    all orderings of each list.  Each distinct ordering occurs equally often
    among the m!(n+1)! of them, so the mean runs over the distinct ones only.
    """
    xs = list(xs)
    ys = list(ys)
    if not xs:
        raise ValueError("Phi needs at least one symmetrized prefix argument")
    if len(ys) < 2:
        raise ValueError("Phi needs at least two symmetrized tail arguments")
    xorders, yorders = _orderings(xs), _orderings(ys)
    n = min(s.truncation for s in xs + ys)
    propers_x = [_proper(left_normed_product(sx).terms) for sx in xorders]
    tails = [(_proper(left_normed_product(sy[:-1]).terms), sy[-1].terms) for sy in yorders]
    return Series(n, _add_mean_p({}, propers_x, tails, n, 1))


# ---------------------------------------------------------------------------
# Symbolic expressions.  Hash-consed immutable trees: the pool keys a node on
# its class and constructor arguments, so equal expressions are the same object
# and identity is the only equality.  The pool is append-only; clearing it while
# a memo still held an expression would make it unequal to its rebuilt twin.

_EXPR_POOL: dict = {}


class PrimExpr:
    """Base of the symbolic expression nodes; not instantiated directly."""

    __slots__ = ("degree", "ydeg")

    @property
    def args(self) -> tuple:
        """The constructor's arguments, one per slot of the node's class."""
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __repr__(self):
        return expr_to_text(self)

    def __reduce__(self):
        return (type(self), self.args)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


def _intern(cls, args):
    """The pooled node of class cls on args, its degree and y-degree (the
    number of y leaves) summed from its operands when it is first built.  A
    pooled node is shared, so its fields are set here, past the read-only
    ``__setattr__``, and never again."""
    key = (cls, *args)
    got = _EXPR_POOL.get(key)
    if got is not None:
        return got
    self = object.__new__(cls)
    if cls is Gen:
        degree, ydeg = 1, int(args[0] == "y")
    else:
        operands = [a for arg in args for a in (arg if type(arg) is tuple else (arg,))]
        degree = sum(a.degree for a in operands)
        ydeg = sum(a.ydeg for a in operands)
    fields = zip(("degree", "ydeg", *cls.__slots__), (degree, ydeg, *args))
    for name, value in fields:
        object.__setattr__(self, name, value)
    _EXPR_POOL[key] = self
    return self


class Gen(PrimExpr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (name,))


class Commutator(PrimExpr):
    __slots__ = ("a", "b")

    def __new__(cls, a: PrimExpr, b: PrimExpr):
        return _intern(cls, (a, b))


class SUBracket(PrimExpr):
    __slots__ = ("prefix", "y", "z")

    def __new__(cls, prefix, y: PrimExpr, z: PrimExpr):
        prefix = tuple(prefix)
        if not prefix:
            raise ValueError("empty bracket prefix; the m = 0 case is a Commutator")
        return _intern(cls, (prefix, y, z))


class Phi(PrimExpr):
    __slots__ = ("xs", "ys")

    def __new__(cls, xs, ys):
        xs = tuple(xs)
        ys = tuple(ys)
        if not xs or len(ys) < 2:
            raise ValueError("Phi needs m >= 1 prefix arguments and >= 2 tail arguments")
        return _intern(cls, (xs, ys))


GX = Gen("x")
GY = Gen("y")


def su_bracket_expr(prefix, y: PrimExpr, z: PrimExpr) -> PrimExpr:
    """Symbolic bracket; <y,z> = -[y,z] is normalized to [z,y]."""
    prefix = tuple(prefix)
    if not prefix:
        return Commutator(z, y)
    return SUBracket(prefix, y, z)


@cache
def _canon(e: PrimExpr):
    """The key e shares with every expression equal to +-e under [a,b] = -[b,a]
    and <u; y, z> = -<u; z, y>, or None when these identities alone make e
    zero: two tails equal up to sign, or a zero operand.  Gen and Phi are
    their own key, enough for route 2, which builds Phi from generators only."""
    if isinstance(e, (Gen, Phi)):
        return e
    prefix, tails = ((), (e.a, e.b)) if isinstance(e, Commutator) else (e.prefix, (e.y, e.z))
    keys = [_canon(x) for x in prefix + tails]
    if None in keys or keys[-1] == keys[-2]:
        return None
    return (type(e), tuple(keys[:-2]), frozenset(keys[-2:]))


def eval_prim(e: PrimExpr, n: int) -> Series:
    """Evaluate a symbolic expression to a truncated series.

    Expressions are homogeneous, so the value is computed once at the
    expression's own degree and re-truncated on demand.
    """
    if e.degree > n:
        return Series.zero(n)
    out = _eval(e)
    return out if n == e.degree else Series(n, out.terms)


@cache
def _eval(e: PrimExpr) -> Series:
    """e at its own degree, memoised for the expressions that take e as an
    operand.  A combination's own terms go through :func:`_add_expr` and leave
    no entry here."""
    return Series(e.degree, _unfold(_add_expr({}, e, 1)))


@cache
def _proper_of(operands: tuple) -> MappingProxyType:
    """The proper coproduct of the left-normed product of the operands' values,
    read-only because it is cached: a bracket's prefix, a tail operand y or z
    as a 1-tuple, or an ordering of Phi's arguments."""
    d = sum(p.degree for p in operands)
    u = _eval(operands[0]).terms
    for p in operands[1:]:
        u = _product(u, _eval(p).terms, d, node)
    return MappingProxyType(_proper(u))


def _add_expr(quotients: dict, e: PrimExpr, scale) -> dict:
    """Add scale * e at e's own degree d into the quotient map ``quotients``
    (see :func:`_unfold`) and return it.  The operands' values come from
    :func:`_eval` and their proper coproducts from :func:`_proper_of`; e itself
    is not memoised.  [a, b] is the commutator loop, a bracket the two p-terms
    of :func:`_add_bracket` (its prefix has no unit part), and Phi the mean of
    p over the distinct orderings of its argument lists."""
    d = e.degree
    if isinstance(e, SUBracket):
        proper_u = _proper_of(e.prefix)
        _add_p(quotients, proper_u, _proper_of((e.z,)), _eval(e.y).terms, d, scale)
        return _add_p(quotients, proper_u, _proper_of((e.y,)), _eval(e.z).terms, d, -scale)
    out = quotients.setdefault(None, {})
    if isinstance(e, Gen):
        _accumulate(out, ((leaf(e.name), scale),))
    elif isinstance(e, Commutator):
        _add_commutator(out, _eval(e.a).terms, _eval(e.b).terms, d, scale)
    else:
        tails = [(_proper_of(ys[:-1]), _eval(ys[-1]).terms) for ys in _orderings(e.ys)]
        _add_mean_p(out, [_proper_of(xs) for xs in _orderings(e.xs)], tails, d, scale)
    return quotients


def _render_expr(e: PrimExpr, style) -> str:
    """e in ``style``: the bracket's delimiters, Phi's name, the space after ";"."""
    if isinstance(e, Gen):
        return e.name
    if isinstance(e, Commutator):
        return f"[{_render_expr(e.a, style)},{_render_expr(e.b, style)}]"
    lang, rang, phi_name, sep = style
    if isinstance(e, SUBracket):
        pre = ",".join(_render_expr(p, style) for p in e.prefix)
        return f"{lang}{pre};{sep}{_render_expr(e.y, style)},{_render_expr(e.z, style)}{rang}"
    xs = ",".join(_render_expr(p, style) for p in e.xs)
    ys = ",".join(_render_expr(p, style) for p in e.ys)
    return f"{phi_name}({xs};{sep}{ys})"


def expr_to_text(e: PrimExpr) -> str:
    return _render_expr(e, ("<", ">", "Phi", " "))


def expr_to_latex(e: PrimExpr) -> str:
    return _render_expr(e, ("\\langle ", "\\rangle", "\\Phi", ""))


class PrimParseError(ParseError):
    """Malformed primitive-expression text; ``position`` is the offending index."""


def parse_prim_expr(text: str) -> PrimExpr:
    """Inverse of :func:`expr_to_text`; whitespace-insensitive."""
    pos = 0
    n = len(text)

    def skip():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip()
        if pos >= n or text[pos] != ch:
            raise PrimParseError(f"expected {ch!r}", pos)
        pos += 1

    def peek():
        skip()
        return text[pos] if pos < n else ""

    def name():
        nonlocal pos
        skip()
        start = pos
        while pos < n and text[pos].isalpha():
            pos += 1
        if start == pos:
            raise PrimParseError("expected a name", pos)
        return text[start:pos]

    def expr_list(closers):
        items = [expr()]
        while peek() == ",":
            expect(",")
            items.append(expr())
        if peek() not in closers:
            raise PrimParseError(f"expected one of {sorted(closers)}", pos)
        return items

    def expr() -> PrimExpr:
        nonlocal pos
        ch = peek()
        if ch == "[":
            expect("[")
            a = expr()
            expect(",")
            b = expr()
            expect("]")
            return Commutator(a, b)
        if ch == "<":
            expect("<")
            first = expr_list({";", ">"})
            if peek() == ";":
                expect(";")
                tail = expr_list({">"})
                expect(">")
                if len(tail) != 2:
                    raise PrimParseError("bracket needs exactly two tail arguments", pos)
                return su_bracket_expr(first, tail[0], tail[1])
            expect(">")
            if len(first) != 2:
                raise PrimParseError("prefix-free bracket needs exactly two arguments", pos)
            return su_bracket_expr([], first[0], first[1])
        w = name()
        if w == "Phi":
            expect("(")
            xs = expr_list({";"})
            expect(";")
            ys = expr_list({")"})
            expect(")")
            return Phi(xs, ys)
        if len(w) == 1 and w in ("x", "y", "z"):
            return Gen(w)
        raise PrimParseError(f"unknown name {w!r}", pos - len(w))

    out = expr()
    skip()
    if pos != n:
        raise PrimParseError(f"trailing input {text[pos]!r}", pos)
    return out


class PrimCombo(Combination):
    """A rational linear combination of primitive-operation expressions;
    ``terms`` is read-only."""

    __slots__ = ()

    _truncated = False
    _key_text = expr_to_text
    _key_latex = expr_to_latex

    @staticmethod
    def _order(e: PrimExpr):
        return (e.degree, expr_to_text(e))

    @classmethod
    def single(cls, e: PrimExpr, coeff=1) -> "PrimCombo":
        return cls({e: coeff})

    def component(self, d: int) -> "PrimCombo":
        return PrimCombo({e: c for e, c in self.terms.items() if e.degree == d})

    def up_to(self, d: int) -> "PrimCombo":
        return PrimCombo({e: c for e, c in self.terms.items() if e.degree <= d})

    def max_degree(self) -> int:
        return max((e.degree for e in self.terms), default=0)

    def evaluate(self, n: int) -> Series:
        """The terms of degree at most n, summed with int weights c * L, where L is
        the coefficients' common denominator; each output term is divided by L once."""
        weights, den = _numerators({e: c for e, c in self.terms.items() if e.degree <= n})
        quotients: dict = {}
        for e, w in weights.items():
            _add_expr(quotients, e, w)
        return Series(n, _coefficients(_unfold(quotients), den))

    def to_json(self) -> list:
        return [{"coeff": str(c), "expr": expr_to_text(e)} for e, c in self.items()]

    @classmethod
    def from_json(cls, data) -> "PrimCombo":
        return cls({parse_prim_expr(t["expr"]): t["coeff"] for t in data})

    # bound in the class body too: bench/spans.py wraps what it finds in PrimCombo.__dict__
    __eq__ = Combination.__eq__
    __add__ = Combination.__add__
    __sub__ = Combination.__sub__
    __neg__ = Combination.__neg__
    __mul__ = Combination.__mul__
    __rmul__ = Combination.__rmul__
    to_text = Combination.to_text

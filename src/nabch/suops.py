"""Shestakov-Umirbaev primitive operations.

The building block is the p-operation

    p(U, V, Z) = sum (U_(1) V_(1)) \\ (U_(2), V_(2), Z)

with (a,b,c) = (ab)c - a(bc) the associator; from it the bracket
<x1,...,xm; y, z> and the fully symmetrized Phi are assembled.  All of
them take arbitrary truncated series as arguments; the multilinear
generator forms are special cases.  The m = 0 bracket is the unit prefix,
<1; y, z> = -[y,z]: p ignores the unit, the key None of a term map, whose
counit part gives the commutator, so one term-map kernel computes every
bracket and commutator.

The same operations also exist symbolically as :class:`PrimExpr` trees with
an exact evaluator, plus a round-trip text syntax:

    x    [A,B]    <A1,...,Am; B, C>    Phi(A1,...,Am; B1,...,Bk)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations

from . import hopf
from .magma import ParseError, node
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


def _add_p(out: dict, proper_u: dict, proper_v: dict, z, n: int, scale) -> dict:
    """Add scale * p(U, V, z) at truncation n into ``out`` and return it, from
    the proper coproducts of U and V and the terms of z.  An associator with a
    unit slot vanishes, so only pairs (a, b) of Delta(U) and (c, d) of Delta(V)
    contribute, through (w, bd) = (ac, bd), each with every term t of z:
    w \\ ((bd)t) - w \\ (b(dt))."""
    pairs = _product(proper_u, proper_v, n - 1, hopf._tensor_join, hopf._key_degree)
    for (w, bd), c in pairs.items():
        room = n - hopf._key_degree((w, bd))
        for t, ct in z.items():
            if t.degree <= room:
                k = scale * c * ct
                _accumulate(out, hopf.left_divide_monomial(w, node(bd, t)).items(), k)
                right = node(bd.left, node(bd.right, t))
                _accumulate(out, hopf.left_divide_monomial(w, right).items(), -k)
    return out


def _add_bracket(out: dict, u, y, z, n: int, scale=1) -> dict:
    """Add scale * <u; y, z> = scale * (p(u, z, y) - p(u, y, z) + eps(u) [z, y])
    at truncation n into ``out`` and return it, for the term maps u, y, z,
    eps(u) being u's coefficient at the unit None.  The only code that
    computes a bracket or a commutator: [a, b] is <1; b, a>.  Zeros are left
    for the caller."""
    proper_u = _proper(u)
    if proper_u:  # the unit has none, so a commutator skips p
        _add_p(out, proper_u, _proper(z), y, n, scale)
        _add_p(out, proper_u, _proper(y), z, n, -scale)
    unit = u.get(None)
    if unit:
        _accumulate(out, _product(z, y, n, node).items(), scale * unit)
        _accumulate(out, _product(y, z, n, node).items(), -scale * unit)
    return out


def p_series(u: Series, v: Series, z: Series) -> Series:
    """The primitive p-operation on series arguments."""
    n = min(u.truncation, v.truncation, z.truncation)
    return Series(n, _add_p({}, _proper(u.terms), _proper(v.terms), z.terms, n, 1))


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
    # each tail ordering's proper coproduct and last argument, taken once
    tails = [(_proper(left_normed_product(sy[:-1]).terms), sy[-1].terms) for sy in yorders]
    total: dict = {}
    for sx in xorders:
        proper_x = _proper(left_normed_product(sx).terms)
        for proper_y, z in tails:
            _add_p(total, proper_x, proper_y, z, n, 1)
    k = len(xorders) * len(yorders)  # an integral quotient stays an int for later sums
    terms = {m: c // k if c % k == 0 else Fraction(c, k) for m, c in total.items()}
    return Series(n, terms)


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
    """e at its own degree d.  A bracket reads its operands' own values, the
    commutator [a, b] as <1; b, a>; Phi, whose series operations need equal
    truncations, gets one series at d per distinct operand."""
    d = e.degree
    if isinstance(e, Gen):
        return Series.generator(e.name, d)
    if isinstance(e, Phi):
        at_d = {p: eval_prim(p, d) for p in {*e.xs, *e.ys}}
        return phi([at_d[p] for p in e.xs], [at_d[p] for p in e.ys])
    if isinstance(e, Commutator):
        u, y, z = {None: 1}, e.b, e.a
    else:
        u, y, z = _eval(e.prefix[0]).terms, e.y, e.z
        for p in e.prefix[1:]:
            u = _product(u, _eval(p).terms, d, node)
    return Series(d, _add_bracket({}, u, _eval(y).terms, _eval(z).terms, d))


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
        acc = _extend(lambda e: _eval(e).terms, weights)
        return Series(n, _coefficients(acc, den))

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

"""Free-magma monomials over {x, y}: leaf-labelled binary planar rooted trees.

A monomial is either a single generator or the ordered product of two
monomials.  Instances are immutable and hash-consed: the pool keys a leaf by
its letter and a product by the identities of its two factors, so equal
trees are the same object and identity is the only equality.  The pool is
append-only; clearing it while a memo still held a tree would make that tree
unequal to its rebuilt twin.  The total order used everywhere (printing,
iteration, golden tests) compares degree first, puts leaves before products,
orders leaves alphabetically and products lexicographically by (left, right).
"""

from __future__ import annotations

from functools import cache

GENERATORS = ("x", "y")

# A third letter is tolerated at the object level so identities that
# quantify over three primitives can be exercised; the text grammar and the
# enumeration stay on the public two-letter alphabet.
_VALID_VARS = ("x", "y", "z")

_POOL: dict = {}


class ParseError(ValueError):
    """Malformed monomial text; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Monomial:
    """A binary tree with generator-labelled leaves.

    Build instances with :func:`leaf`, :func:`node`, :func:`parse` or
    :func:`left_normed_power`; direct construction is internal.  ``key`` is
    a nested tuple that realizes the canonical order under plain tuple
    comparison; it serves the order alone, never equality or hashing.
    """

    __slots__ = ("var", "left", "right", "degree", "xdeg", "ydeg", "vars", "key")

    def __init__(self, var, left, right, degree, xdeg, ydeg, vars_, key):
        self.var = var
        self.left = left
        self.right = right
        self.degree = degree
        self.xdeg = xdeg
        self.ydeg = ydeg
        self.vars = vars_
        self.key = key

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __gt__(self, other):
        return self.key > other.key

    def __ge__(self, other):
        return self.key >= other.key

    def __repr__(self):
        return format_monomial(self)

    def __reduce__(self):
        return (leaf, (self.var,)) if self.is_leaf else (node, (self.left, self.right))


def leaf(var: str) -> Monomial:
    """The monomial consisting of the single generator ``var``."""
    m = _POOL.get(var)
    if m is not None:
        return m
    if var not in _VALID_VARS:
        raise ValueError(f"unknown generator {var!r}; expected one of {_VALID_VARS}")
    m = Monomial(var, None, None, 1, int(var == "x"), int(var == "y"), (var,), (1, 0, var))
    _POOL[var] = m
    return m


def node(left: Monomial, right: Monomial) -> Monomial:
    """The ordered product of two monomials."""
    m = _POOL.get((left, right))
    if m is not None:
        return m
    d = left.degree + right.degree
    vars_ = left.vars if left.vars == right.vars else tuple(sorted(set(left.vars) | set(right.vars)))
    key = (d, 1, left.key, right.key)
    m = Monomial(None, left, right, d, left.xdeg + right.xdeg, left.ydeg + right.ydeg, vars_, key)
    _POOL[left, right] = m
    return m


X = leaf("x")
Y = leaf("y")
Z = leaf("z")


def compare(a: Monomial, b: Monomial) -> int:
    """-1, 0 or 1 per the canonical order."""
    if a.key < b.key:
        return -1
    return 0 if a is b else 1


def left_normed_power(v, n: int) -> Monomial:
    """The left-normed n-th power (((vv)v)...)v; n >= 1."""
    if n < 1:
        raise ValueError("left_normed_power needs n >= 1 (the empty product is the series unit)")
    base = leaf(v) if isinstance(v, str) else v
    out = base
    for _ in range(n - 1):
        out = node(out, base)
    return out


@cache
def mirror(m: Monomial) -> Monomial:
    """m reflected left to right, the anti-automorphism (ab) -> mirror(b) mirror(a)
    of the free magma; it keeps the degree and the multidegree."""
    if m.is_leaf:
        return m
    return node(mirror(m.right), mirror(m.left))


def word_letters(m: Monomial) -> tuple[str, ...]:
    """Leaf labels in left-to-right order."""
    if m.is_leaf:
        return (m.var,)
    return word_letters(m.left) + word_letters(m.right)


def is_left_normed_word(m: Monomial) -> bool:
    """True for (((g1 g2)g3)...)gk with every gi a generator."""
    while not m.is_leaf:
        if not m.right.is_leaf:
            return False
        m = m.left
    return True


def parse(text: str) -> Monomial:
    """Parse ``monomial ::= "x" | "y" | "(" monomial monomial ")"``.

    Whitespace is ignored; errors carry the offending position.
    """
    pos = 0
    n = len(text)

    def skip():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def term() -> Monomial:
        nonlocal pos
        skip()
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch in GENERATORS:
            pos += 1
            return leaf(ch)
        if ch == "(":
            pos += 1
            left_m = term()
            right_m = term()
            skip()
            if pos >= n or text[pos] != ")":
                raise ParseError("expected ')'", pos)
            pos += 1
            return node(left_m, right_m)
        raise ParseError(f"unexpected character {ch!r}", pos)

    skip()
    if pos >= n:
        raise ParseError("empty input", pos)
    m = term()
    skip()
    if pos != n:
        raise ParseError(f"trailing input {text[pos]!r}", pos)
    return m


def _as_power(m: Monomial):
    """(v, n) if m is the left-normed n-th power of a generator, else None."""
    if len(m.vars) == 1 and is_left_normed_word(m):
        return (m.vars[0], m.degree)
    return None


def _latex(m: Monomial) -> str:
    pw = _as_power(m)
    if pw is not None:
        v, n = pw
        return v if n == 1 else f"{v}^{{{n}}}"
    parts = []
    for child in (m.left, m.right):
        s = _latex(child)
        if not child.is_leaf and _as_power(child) is None:
            s = f"({s})"
        parts.append(s)
    return "".join(parts)


def format_monomial(m: Monomial, style: str = "compact") -> str:
    """Render a monomial; ``compact`` round-trips through :func:`parse`."""
    if style == "compact":
        if m.is_leaf:
            return m.var
        return f"({format_monomial(m.left)}{format_monomial(m.right)})"
    if style == "latex":
        return _latex(m)
    raise ValueError(f"unknown style {style!r}")


def enumerate_monomials(n: int, alphabet: tuple[str, ...] = GENERATORS) -> tuple[Monomial, ...]:
    """All monomials of degree n over the distinct letters of ``alphabet``,
    canonically sorted.

    There are Catalan(n-1) * k**n of them for k distinct letters.  The
    alphabet is normalised before the memo, so every way of passing it
    shares one entry.
    """
    return _monomials(n, tuple(sorted(set(alphabet))))


@cache
def _monomials(n: int, alphabet: tuple[str, ...]) -> tuple[Monomial, ...]:
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return tuple(leaf(v) for v in alphabet)
    acc = []
    for k in range(1, n):
        for a in _monomials(k, alphabet):
            for b in _monomials(n - k, alphabet):
                acc.append(node(a, b))
    return tuple(sorted(acc))


def monomial_to_json(m: Monomial):
    """Nested two-element arrays with string leaves, e.g. [["x","x"],"y"]."""
    if m.is_leaf:
        return m.var
    return [monomial_to_json(m.left), monomial_to_json(m.right)]


def monomial_from_json(data) -> Monomial:
    if isinstance(data, str):
        return leaf(data)
    if isinstance(data, (list, tuple)) and len(data) == 2:
        return node(monomial_from_json(data[0]), monomial_from_json(data[1]))
    raise ValueError(f"not a monomial encoding: {data!r}")

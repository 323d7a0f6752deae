"""Reference values for the benchmark, computed without the nabch package.

Only the standard library is used, so a fault in the program cannot reach
its own check.  Everything is exact (``fractions.Fraction``).

* :func:`classical_bch` gives the coefficients of the associative series
  ``log(e^x e^y)`` on words over {x, y}.  Forgetting the parentheses of a
  non-associative monomial maps the non-associative BCH series onto this
  series, so for every word the coefficients of all its bracketings must
  add up to the classical coefficient.
* :func:`closed_form_xmyn` is the known coefficient of ``x^m y^n``.
* :func:`monomial_word` and :func:`xmyn_shape` read the JSON form of a
  monomial (nested pairs with string leaves).
* :func:`parse_prim` reads the text form of a primitive-operation
  expression and :func:`assoc_image` maps it to the associative algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

Q = Fraction


def words(n: int) -> list[str]:
    """All words of length n over {x, y}, in lexicographic order."""
    return ["".join(p) for p in product("xy", repeat=n)]


def _mul(a: dict, b: dict, n: int | None = None) -> dict:
    """Product of word polynomials, dropping words longer than n."""
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if n is None or len(wa) + len(wb) <= n:
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def classical_bch(n: int) -> dict[str, Q]:
    """Coefficients of log(e^x e^y) on every word of length 1..n.

    Words with coefficient 0 are present with value 0, so a missing word in
    a program's output is compared against an explicit zero.
    """
    # z = e^x e^y - 1 = sum over a + b >= 1 of x^a y^b / (a! b!)
    z = {
        "x" * a + "y" * b: Q(1, factorial(a) * factorial(b))
        for a in range(n + 1)
        for b in range(n + 1 - a)
        if a + b
    }
    out = {w: Q(0) for d in range(1, n + 1) for w in words(d)}
    power = dict(z)
    for k in range(1, n + 1):
        sign = Q((-1) ** (k + 1), k)
        for w, c in power.items():
            out[w] += sign * c
        power = _mul(power, z, n)
    return out


def closed_form_xmyn(m: int, n: int) -> Q:
    """BCH coefficient of x^m y^n (left-normed powers): 1/(m! n!) for n >= 2,
    m/(m+1)! for n = 1."""
    if n >= 2:
        return Q(1, factorial(m) * factorial(n))
    return Q(m, factorial(m + 1))


def xmyn_cases(degree: int) -> list[tuple[int, int]]:
    """Every (m, n) with m, n >= 1 and m + n <= degree."""
    return [(m, d - m) for d in range(2, degree + 1) for m in range(1, d)]


# ---------------------------------------------------------------------------
# Monomials in their JSON form: "x", "y" or a two-element list.


def monomial_word(tree) -> str:
    """The leaf labels of a JSON monomial, left to right.

    Raises ValueError on anything that is not a binary tree over {x, y}.
    """
    if tree == "x" or tree == "y":
        return tree
    if isinstance(tree, list) and len(tree) == 2:
        return monomial_word(tree[0]) + monomial_word(tree[1])
    raise ValueError(f"not a monomial: {tree!r}")


def _left_power(tree, letter: str) -> int:
    """k if tree is the left-normed power (((v v) v) ...) v of ``letter``, else 0."""
    k = 0
    while isinstance(tree, list):
        if tree[1] != letter:
            return 0
        k += 1
        tree = tree[0]
    return k + 1 if tree == letter else 0


def xmyn_shape(tree) -> tuple[int, int] | None:
    """(m, n) if the JSON monomial is x^m y^n with m, n >= 1, else None."""
    if not isinstance(tree, list):
        return None
    m = _left_power(tree[0], "x")
    n = _left_power(tree[1], "y")
    return (m, n) if m and n else None


def xmyn_text(m: int, n: int) -> str:
    """The compact text form of x^m y^n, as the CLI's monomial parser reads it."""

    def power(v: str, k: int) -> str:
        out = v
        for _ in range(k - 1):
            out = f"({out}{v})"
        return out

    return f"({power('x', m)}{power('y', n)})"


def monomial_texts(n: int) -> list[str]:
    """Every monomial of degree n over {x, y} in compact text form, e.g.
    "((xy)x)"; there are Catalan(n-1) * 2^n of them."""
    return list(_monomial_texts(n))


@lru_cache(maxsize=None)
def _monomial_texts(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("x", "y")
    return tuple(
        f"({a}{b})"
        for k in range(1, n)
        for a in _monomial_texts(k)
        for b in _monomial_texts(n - k)
    )


def text_word(text: str) -> str:
    """The leaf labels of a compact monomial text."""
    return text.replace("(", "").replace(")", "")


def text_xmyn_shape(text: str) -> tuple[int, int] | None:
    """(m, n) if the compact monomial text is x^m y^n with m, n >= 1."""
    w = text_word(text)
    m = len(w) - len(w.lstrip("x"))
    n = len(w) - m
    if m and n and text == xmyn_text(m, n):
        return (m, n)
    return None


# ---------------------------------------------------------------------------
# Primitive-operation expressions:
#   x    [A,B]    <A1,...,Am; B, C>    Phi(A1,...,Am; B1,...,Bk)


class PrimSyntaxError(ValueError):
    pass


def parse_prim(text: str):
    """Parse an expression into nested tuples:
    ("g", name), ("c", A, B), ("s", (A1..Am), B, C), ("p", (A1..), (B1..))."""
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos] == " ":
            pos += 1

    def eat(tok: str):
        nonlocal pos
        skip()
        if not text.startswith(tok, pos):
            raise PrimSyntaxError(f"expected {tok!r} at {pos} in {text!r}")
        pos += len(tok)

    def peek() -> str:
        skip()
        return text[pos] if pos < len(text) else ""

    def expr_list(stop: str) -> list:
        items = [expr()]
        while peek() == ",":
            eat(",")
            items.append(expr())
        if peek() != stop:
            raise PrimSyntaxError(f"expected {stop!r} at {pos} in {text!r}")
        return items

    def expr():
        nonlocal pos
        ch = peek()
        if text.startswith("Phi(", pos):
            eat("Phi(")
            xs = expr_list(";")
            eat(";")
            ys = expr_list(")")
            eat(")")
            return ("p", tuple(xs), tuple(ys))
        if ch == "[":
            eat("[")
            a = expr()
            eat(",")
            b = expr()
            eat("]")
            return ("c", a, b)
        if ch == "<":
            eat("<")
            prefix = [] if peek() == ";" else expr_list(";")
            eat(";")
            y = expr()
            eat(",")
            z = expr()
            eat(">")
            return ("s", tuple(prefix), y, z)
        if ch in ("x", "y"):
            pos += 1
            return ("g", ch)
        raise PrimSyntaxError(f"unexpected {ch!r} at {pos} in {text!r}")

    out = expr()
    skip()
    if pos != len(text):
        raise PrimSyntaxError(f"trailing input at {pos} in {text!r}")
    return out


def _lin(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + sign * c
    return out


def assoc_image(e) -> dict[str, Q]:
    """The image of an expression in the free associative algebra.

    Associators vanish there, so every bracket with a non-empty prefix and
    every Phi maps to 0; [A,B] maps to AB - BA and the empty-prefix bracket
    <; B, C> = -[B,C] to CB - BC.
    """
    tag = e[0]
    if tag == "g":
        return {e[1]: Q(1)}
    if tag == "c":
        a, b = assoc_image(e[1]), assoc_image(e[2])
        return _lin(_mul(a, b), _mul(b, a), -1)
    if tag == "s" and not e[1]:
        y, z = assoc_image(e[2]), assoc_image(e[3])
        return _lin(_mul(z, y), _mul(y, z), -1)
    return {}

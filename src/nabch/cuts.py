"""Cuts, branches, and per-monomial BCH coefficients.

A cut of w presents it as tau(tau_1,...,tau_l): a skeleton tree tau whose l
leaves are replaced by the branch monomials tau_i, the i-th branch covering
a consecutive interval of w's leaf positions.  Restricting every branch to
the shape x^i y^j — a left-normed x-power times a left-normed y-power, the
shapes occurring inside exp_l(x) exp_l(y) — gives the BCH-cuts, and

    coeff of w in log_l(exp_l(x) exp_l(y))
        = sum over BCH-cuts of  c_tau / (i_1! ... i_l! j_1! ... j_l!)

with c_tau = B_tau/tau! the coefficient of tau in log_l(1+x).

The sum is computed without listing the cuts.  A skeleton with left spine
((x tau_1) ...) tau_k has c_tau = B_k/k! c_{tau_1} ... c_{tau_k}, since
B_tau and tau! both factor over the spine.  A cut of w whose skeleton has
spine length k therefore splits w as ((w_0 t_1) t_2 ...) t_k, keeps w_0 as
one branch, and cuts each t_i independently, so the sum factors into

    F(w) = sum_k [w_0 = x^i y^j] B_k / (k! i! j!) F(t_1) ... F(t_k)

over k = 0 .. the length of w's left spine.  :func:`enumerate_cuts` and
:func:`enumerate_bch_cuts` list the cuts themselves, for the checks and as
the test oracle of the recurrence.

Summed over all monomials w, the same identity gives the whole series.  The
x^i y^j / (i! j!) are the terms of z = exp_l(x) exp_l(y) - 1, so

    F = sum_k (B_k/k!) R_k,    R_0 = z,    R_k = R_{k-1} F

with R_k = ((z F) F ...) F, k right factors.  :func:`bch_series` builds it
degree by degree from homogeneous blocks.  R_k starts at degree k + 1, so
the degree-d block of R_k (k >= 1) is the sum over e = 1 .. d - k of
R_{k-1}[d - e] F[e], and F[d] = sum_{k < d} (B_k/k!) R_k[d] needs only the
F[e] with e < d.  Every block is held as int numerators over one
denominator, so the products and sums are int arithmetic, and a Fraction is
built only for each term of the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial, lcm

from .magma import Monomial, is_left_normed_word, leaf, left_normed_power, node
from .series import (
    Q,
    Series,
    _accumulate,
    _coefficients,
    _numerators,
    _product,
    _spine,
    b_tau,
    bernoulli,
    exp_l,
    tau_factorial,
)

_SLOT = leaf("x")  # skeletons are one-variable shapes


@dataclass(frozen=True)
class Cut:
    """skeleton tau with ordered branches; grafting the branches onto the
    skeleton's leaves reproduces the original monomial."""

    skeleton: Monomial
    branches: tuple[Monomial, ...]

    def positions(self) -> tuple[tuple[int, int], ...]:
        """The lambda intervals: 1-based inclusive leaf ranges per branch."""
        out = []
        start = 1
        for b in self.branches:
            out.append((start, start + b.degree - 1))
            start += b.degree
        return tuple(out)

    def graft(self) -> Monomial:
        branches = list(self.branches)

        def build(sk: Monomial) -> Monomial:
            if sk.is_leaf:
                return branches.pop(0)
            return node(build(sk.left), build(sk.right))

        return build(self.skeleton)


@cache
def enumerate_cuts(w: Monomial) -> tuple[Cut, ...]:
    """Every frontier of disjoint subtrees covering the leaves, from the
    trivial cut (one branch, slot skeleton) to the full cut (all leaves)."""
    cuts = [Cut(_SLOT, (w,))]
    if not w.is_leaf:
        for cl in enumerate_cuts(w.left):
            for cr in enumerate_cuts(w.right):
                cuts.append(Cut(node(cl.skeleton, cr.skeleton), cl.branches + cr.branches))
    return tuple(cuts)


def _power_of(m: Monomial, var: str) -> bool:
    """Whether m is a left-normed power of the generator ``var``."""
    return m.vars == (var,) and is_left_normed_word(m)


def xiyj_shape(m: Monomial) -> tuple[int, int] | None:
    """(i, j) if m is x^i y^j — left-normed powers, x-block then y-block."""
    if _power_of(m, "x"):
        return (m.degree, 0)
    if _power_of(m, "y"):
        return (0, m.degree)
    if not m.is_leaf and _power_of(m.left, "x") and _power_of(m.right, "y"):
        return (m.left.degree, m.right.degree)
    return None


def xmyn_monomial(m: int, n: int) -> Monomial:
    """The monomial x^m y^n in the branch-shape convention."""
    if m < 1 or n < 1:
        raise ValueError("x^m y^n needs m, n >= 1")
    return node(left_normed_power("x", m), left_normed_power("y", n))


def enumerate_bch_cuts(w: Monomial) -> tuple[Cut, ...]:
    """The cuts of w whose branches all have x^i y^j shape."""
    return tuple(
        c for c in enumerate_cuts(w) if all(xiyj_shape(b) is not None for b in c.branches)
    )


def c_tau(skeleton: Monomial) -> Q:
    """B_tau/tau!: the coefficient of the skeleton shape in log_l(1+x)."""
    return b_tau(skeleton) / tau_factorial(skeleton)


# A call recurses once per level of right nesting, and a monomial of degree d
# nests fewer than d levels; above _SHALLOW the nested factors are computed
# bottom-up instead, so the recursion never exceeds _SHALLOW levels.
_SHALLOW = 64


@cache
def coefficient_via_cuts(w: Monomial) -> Q:
    """The BCH coefficient of w, summed over its BCH-cuts without listing them.

    For each k up to the length of w's left spine, write w as
    ((w_0 t_1) t_2 ...) t_k.  A BCH-cut whose skeleton has spine length k
    keeps w_0 whole as a branch of shape x^i y^j and cuts each t_i on its
    own; its term c_tau / prod(i! j!) is B_k/(k! i! j!) times the terms of
    those cuts of the t_i.  Summed over them, this gives

        F(w) = sum_k [w_0 = x^i y^j] B_k/(k! i! j!) F(t_1) ... F(t_k).

    Values are memoised per monomial.  Above degree _SHALLOW the factors
    t_i of that degree, and theirs in turn, are evaluated from the deepest
    up with an explicit stack, the smaller ones through the memo.
    """
    if w.degree <= _SHALLOW:
        return _spine_sum(w, coefficient_via_cuts)
    found, stack = [], [w]
    while stack:
        m = stack.pop()
        found.append(m)
        for t in _spine(m):
            if t.degree > _SHALLOW:
                stack.append(t)
    big = {}

    def f(t):
        return big[t] if t.degree > _SHALLOW else coefficient_via_cuts(t)

    for m in reversed(found):  # each after the factors inside it
        big[m] = _spine_sum(m, f)
    return big[w]


def _spine_sum(w: Monomial, f) -> Q:
    """The sum F(w) above, with f giving F at the factors t_i.  The k with
    B_k = 0 add nothing, and the walk stops once a factor f(t_i) is zero."""
    out = Q(0)
    base, above, k = w, Q(1), 0  # above = f(t_1)...f(t_k) of the stripped factors
    while True:
        b = bernoulli(k)
        if b:
            shape = xiyj_shape(base)
            if shape is not None:
                out += b * above / (factorial(k) * factorial(shape[0]) * factorial(shape[1]))
        if base.is_leaf:
            break
        above *= f(base.right)
        if not above:
            break
        base, k = base.left, k + 1
    return out


@cache
def bch_series(n: int) -> Series:
    """log_l(exp_l(x) exp_l(y)) truncated at n, as the lifted cut recurrence
    F = sum_k (B_k/k!) ((z F) F ...) F of the module docstring.

    r[k, d] is the degree-d block of R_k and f[d] that of F, each held as
    int numerators over one denominator.  The products summed into a block
    are brought to the lcm of their denominators first, and one Fraction is
    built per output term; the blocks are dropped on return."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    z = {}
    for m, c in (exp_l("x", n) * exp_l("y", n)).terms.items():
        z.setdefault(m.degree, {})[m] = c
    r = {(0, d): _numerators(block) for d, block in z.items()}
    f = [None]
    for d in range(1, n + 1):
        for k in range(1, d):
            pairs = [(r[k - 1, d - e], f[e]) for e in range(1, d - k + 1)]
            den = lcm(*(dp * dq for (_, dp), (_, dq) in pairs))
            block = {}
            for (p, dp), (q, dq) in pairs:
                _accumulate(block, _product(p, q, d, node).items(), den // (dp * dq))
            r[k, d] = block, den
        parts = [(bernoulli(k) / factorial(k), r[k, d]) for k in range(d) if bernoulli(k)]
        den = lcm(*(c.denominator * dk for c, (_, dk) in parts))
        fd = {}
        for c, (block, dk) in parts:
            _accumulate(fd, block.items(), c.numerator * (den // (c.denominator * dk)))
        f.append(({m: v for m, v in fd.items() if v}, den))
    return Series(n, (term for block in f[1:] for term in _coefficients(*block)))


def closed_form_xmyn(m: int, n: int) -> Q:
    """BCH coefficient of x^m y^n: 1/(m! n!) for n >= 2, m/(m+1)! for n = 1."""
    if m < 1 or n < 1:
        raise ValueError("closed form needs m, n >= 1")
    if n >= 2:
        return Q(1, factorial(m) * factorial(n))
    return Q(m, factorial(m + 1))

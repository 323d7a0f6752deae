"""Cuts, branches, and per-monomial BCH coefficients.

A cut of w presents it as tau(tau_1,...,tau_l): a skeleton tree tau whose l
leaves are replaced by the branch monomials tau_i, the i-th branch covering
a consecutive interval of w's leaf positions.  Restricting every branch to
the shape x^i y^j — a left-normed x-power times a left-normed y-power, the
shapes occurring inside exp_l(x) exp_l(y) — gives the BCH-cuts, and

    coeff of w in log_l(exp_l(x) exp_l(y))
        = sum over BCH-cuts of  c_tau / (i_1! ... i_l! j_1! ... j_l!)

with c_tau = B_tau/tau! the coefficient of tau in log_l(1+x).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .magma import Monomial, is_left_normed_word, leaf, left_normed_power, node
from .series import Q, b_tau, tau_factorial

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


_CUTS: dict[Monomial, tuple[Cut, ...]] = {}


def enumerate_cuts(w: Monomial) -> tuple[Cut, ...]:
    """Every frontier of disjoint subtrees covering the leaves, from the
    trivial cut (one branch, slot skeleton) to the full cut (all leaves)."""
    out = _CUTS.get(w)
    if out is not None:
        return out
    cuts = [Cut(_SLOT, (w,))]
    if not w.is_leaf:
        for cl in enumerate_cuts(w.left):
            for cr in enumerate_cuts(w.right):
                cuts.append(Cut(node(cl.skeleton, cr.skeleton), cl.branches + cr.branches))
    out = tuple(cuts)
    _CUTS[w] = out
    return out


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


def coefficient_via_cuts(w: Monomial) -> Q:
    """The BCH coefficient of w, summed monomial-by-monomial over BCH-cuts."""
    total = Q(0)
    for cut in enumerate_bch_cuts(w):
        ct = c_tau(cut.skeleton)
        if not ct:
            continue
        denom = 1
        for b in cut.branches:
            i, j = xiyj_shape(b)
            denom *= factorial(i) * factorial(j)
        total += ct / denom
    return total


def closed_form_xmyn(m: int, n: int) -> Q:
    """BCH coefficient of x^m y^n: 1/(m! n!) for n >= 2, m/(m+1)! for n = 1."""
    if m < 1 or n < 1:
        raise ValueError("closed form needs m, n >= 1")
    if n >= 2:
        return Q(1, factorial(m) * factorial(n))
    return Q(m, factorial(m + 1))

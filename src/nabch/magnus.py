"""Magnus machinery for the left-normed exponential.

The tangent map tau(y) = exp_l(x) \\ (d/ds exp_l(x+sy))|_0 expands as
y + sum_J m_J P_J(x;y) over integer compositions J, with P_J the nested
bracket <x,..,x; x, <x,..,x; x, ... <x,..,x; x, y>>> using j_i - 1 prefix
copies at level i.  Its inverse carries the alternating coefficients

    n_J = sum over concatenation factorizations J = J_1 || ... || J_l
          of (-1)^l m_{J_1} ... m_{J_l},

which give the inverse tangent map and the first-order BCH term.  Both maps
are kept at x only, as symbolic sums: :func:`tau_apply` and
:func:`tau_inverse` take a :class:`PrimCombo` t and return
t + sum_J c_J P_J(x; t) over interned P_J trees.  The full
series in the primitive basis solves the Magnus-type ODE Omega' = tau_Omega^{-1}(D),
equal to D + sum_J n_J P_J(Omega; D); it is computed by the tangent map's
own recurrence, degree by degree, in place of the composition sum.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .series import Q, Series, _accumulate, exp_l, log_l
from .suops import (
    GX,
    GY,
    Phi,
    PrimCombo,
    PrimExpr,
    _canon,
    su_bracket_expr,
)

Composition = tuple


@cache
def compositions(weight: int) -> tuple[Composition, ...]:
    """All tuples of positive integers summing to ``weight``."""
    if weight < 1:
        raise ValueError("composition weight must be >= 1")
    if weight == 1:
        return ((1,),)
    out = []
    for first in range(1, weight):
        for rest in compositions(weight - first):
            out.append((first,) + rest)
    out.append((weight,))
    return tuple(out)


@cache
def m_coeff(j: Composition) -> Q:
    """m_J = prod_i 1/(j_i + ... + j_s + 1) * 1/(j_i - 1)!."""
    out = Q(1)
    suffix = sum(j)
    for part in j:
        if part < 1:
            raise ValueError("composition parts must be >= 1")
        out *= Q(1, (suffix + 1) * factorial(part - 1))
        suffix -= part
    return out


@cache
def n_coeff(j: Composition) -> Q:
    """The alternating sum of m-products over all concatenation
    factorizations, by the suffix recurrence it satisfies: splitting off the
    first block J[:i] gives n_J = -sum_{i=1..s} m_{J[:i]} n_{J[i:]}, with
    n_() = 1.  The suffixes are filled shortest first, O(s^2) products."""
    s = len(j)
    suffix = [Q(0)] * s + [Q(1)]  # suffix[i] = n_{J[i:]}
    for start in range(s - 1, -1, -1):
        acc = Q(0)
        for end in range(start + 1, s + 1):
            acc -= m_coeff(j[start:end]) * suffix[end]
        suffix[start] = acc
    return suffix[0]


def p_nested_expr(j: Composition, u: PrimExpr = GX, v: PrimExpr = GY) -> PrimExpr:
    inner = v
    for part in reversed(j):
        inner = su_bracket_expr((u,) * (part - 1), u, inner)
    return inner


# ---------------------------------------------------------------------------
# The tangent map and its inverse.


def _weighted_sum(t: PrimCombo, n: int, coeff) -> PrimCombo:
    """t + sum_J coeff(J) P_J(x; t) through total degree n, P_J(x; e) having
    degree |J| + deg e."""
    return t.up_to(n) + PrimCombo(
        [
            (p_nested_expr(j, GX, e), c * coeff(j))
            for e, c in t.terms.items()
            for weight in range(1, n - e.degree + 1)
            for j in compositions(weight)
        ]
    )


def tau_apply(t: PrimCombo, n: int) -> PrimCombo:
    """The tangent map of exp_l at x, applied to t through degree n:
    t + sum m_J P_J(x; t)."""
    return _weighted_sum(t, n, m_coeff)


def tau_inverse(t: PrimCombo, n: int) -> PrimCombo:
    """The inverse tangent map at x through degree n: t + sum n_J P_J(x; t)."""
    return _weighted_sum(t, n, n_coeff)


def _cross_bracket(slots, d: int, out: dict, scale: Q) -> None:
    """Add ``scale`` times the degree-d component of the bracket
    <s_1, ..., s_m; y, z>, expanded multilinearly over combination-valued
    slots, into ``out``.

    ``slots`` lists each slot's (expr, coeff) terms in ascending degree, the
    tail slots y and z last.  A backtracking walk: a slot's loop stops at the
    first term that leaves too little room for the least degrees the later
    slots still need, and the last slot keeps a term only when it fills the
    budget exactly.  A term that antisymmetry alone makes zero
    (:func:`suops._canon` gives None) is not kept.
    """
    if not all(slots):
        return
    last = len(slots) - 1
    need = [0] * (last + 2)  # need[i]: least degree of slots i..last
    for i in range(last, -1, -1):
        need[i] = need[i + 1] + slots[i][0][0].degree

    def walk(i: int, budget: int, coeff: Q, chosen: tuple) -> None:
        room = budget - need[i + 1]
        for e, c in slots[i]:
            deg = e.degree
            if deg > room:
                break
            if i < last:
                walk(i + 1, budget - deg, coeff * c, chosen + (e,))
            elif deg == budget:
                key = su_bracket_expr(chosen[:-1], chosen[-1], e)
                if _canon(key) is not None:
                    prev = out.get(key)
                    out[key] = coeff * c if prev is None else prev + coeff * c

    walk(0, d, scale, ())


def _tangent_step(omega: list, taus: list, d: int, keep: bool = True) -> dict:
    """The sum of the degree-d parts of tau_j(Omega; T) over j = 1 .. d-1;
    with ``keep``, each part is also appended to ``taus[j]``.

    tau_0 = T and tau_j = sum_{i=1..j} 1/((j+1)(j-i)!) <Omega^(j-i); Omega, tau_{i-1}>,
    multilinear in its j copies of Omega.  Every slot has degree >= 1, so the
    degree-d part reads only parts below degree d: ``omega`` and each
    ``taus[j]`` are term lists in ascending degree holding at least those.
    """
    total: dict = {}
    for j in range(1, d):
        part: dict = {}
        for i in range(1, j + 1):
            scale = Q(1, (j + 1) * factorial(j - i))
            _cross_bracket([omega] * (j - i + 1) + [taus[i - 1]], d, part, scale)
        _accumulate(total, part.items())
        if keep:
            part = [(e, c) for e, c in part.items() if c]
            if j == len(taus):
                taus.append(part)
            else:
                taus[j] += part
    return total


@cache
def tau_components(n: int) -> tuple[PrimCombo, ...]:
    """tau_0 .. tau_n of the tangent map, as primitive-operation combinations:
    the tangent step with Omega = x and T = y, so tau_k has degree k + 1.

    tau_0 = y and tau_k = sum_{i=1..k} 1/(k+1) * 1/(k-i)! <x^(k-i); x, tau_{i-1}>.
    """
    taus = [[(GY, Q(1))]]
    for d in range(2, n + 2):
        _tangent_step([(GX, Q(1))], taus, d)
    return tuple(PrimCombo(t) for t in taus)


def tau_exp_l(n: int) -> Series:
    """The tangent map applied to y, evaluated at truncation n + 1.

    Cross-checks against gamma_{y d/dx}(exp_l(x)).
    """
    return PrimCombo([kv for tau in tau_components(n) for kv in tau.terms.items()]).evaluate(n + 1)


# ---------------------------------------------------------------------------
# The two Baker-Campbell-Hausdorff constructions.


@cache
def bch_monomial(n: int) -> Series:
    """log_l(exp_l(x) exp_l(y)) in the raw monomial basis, truncated at n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return log_l(exp_l("x", n) * exp_l("y", n))


def bch_first_order(n: int) -> Series:
    """x + (tangent inverse at x applied to y): the BCH series modulo y-degree >= 2."""
    return bch_first_order_combo(n).evaluate(n)


def bch_first_order_combo(n: int) -> PrimCombo:
    return PrimCombo.single(GX) + tau_inverse(PrimCombo.single(GY), n)


@cache
def bch_ode(n: int) -> PrimCombo:
    """log_l(exp_l(x) exp_l(y)) in the primitive basis via the Magnus-type ODE.

    Omega(t) = log_l(exp_l(x) exp_l(ty)) satisfies Omega(0) = x and
    Omega' = T, where tau_Omega(T) = D for the driver
    D(t) = y - Phi(exp_l(x); exp_l(ty); y); the group-like Phi argument
    expands as sum_{m,k>=1} t^k/(m! k!) Phi(x,..,x; y,..,y, y).  A term of T
    of y-degree k carries t^(k-1), so integrating to t = 1 divides it by k.

    T is the fixed point of T = D - sum_{j>=1} tau_j(Omega; T), triangular in
    total degree: at each degree the tangent step gives every tau_j's part
    from the parts below, then T's part follows, then Omega's.  Evaluation
    agrees exactly with :func:`bch_monomial`.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    drive = [(GY, Q(1))] + [
        (Phi((GX,) * m, (GY,) * (k + 1)), -Q(1, factorial(m) * factorial(k)))
        for k in range(1, n - 1)
        for m in range(1, n - k)
    ]
    omega = [(GX, Q(1))]
    taus: list[list] = [[]]  # taus[0] is T
    for d in range(1, n + 1):
        t = {e: c for e, c in drive if e.degree == d}
        # nothing reads the parts of degree n, so they are not kept
        _accumulate(t, _tangent_step(omega, taus, d, keep=d < n).items(), Q(-1))
        part = [(e, c) for e, c in t.items() if c]
        taus[0] += part
        omega += [(e, c / e.ydeg) for e, c in part]
    return PrimCombo(omega)

"""Magnus machinery for the left-normed exponential.

The tangent map tau(y) = exp_l(x) \\ (d/ds exp_l(x+sy))|_0 expands as
y + sum_J m_J P_J(x;y) over integer compositions J, with P_J the nested
bracket <x,..,x; x, <x,..,x; x, ... <x,..,x; x, y>>> using j_i - 1 prefix
copies at level i.  Its inverse carries the alternating coefficients

    n_J = sum over concatenation factorizations J = J_1 || ... || J_l
          of (-1)^l m_{J_1} ... m_{J_l},

which drive both the Magnus-type ODE  Omega' = A + sum_J n_J P_J(Omega; A)
and the two primitive-basis constructions of log_l(exp_l(x) exp_l(y)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

from .series import Q, Series, _distributions, exp_l, log_l
from .suops import (
    GX,
    GY,
    PrimCombo,
    PrimExpr,
    _canon,
    phi_expr,
    su_bracket,
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


def p_nested(j: Composition, u: Series, v: Series) -> Series:
    """P_J(u; v), the nested bracket with j_i - 1 prefix copies of u at level i."""
    inner = v
    for part in reversed(j):
        inner = su_bracket([u] * (part - 1), u, inner)
    return inner


def p_nested_expr(j: Composition, u: PrimExpr = GX, v: PrimExpr = GY) -> PrimExpr:
    inner = v
    for part in reversed(j):
        inner = su_bracket_expr((u,) * (part - 1), u, inner)
    return inner


# ---------------------------------------------------------------------------
# The tangent map and its inverse.


def _weighted_sum(u: Series, v: Series, coeff) -> Series:
    """v + sum_J coeff(J) P_J(u; v), capped by the available degree budget."""
    n = min(u.truncation, v.truncation)
    min_u = u.min_degree()
    min_v = v.min_degree()
    if min_v is None:
        return v
    if min_u in (None, 0):
        raise ValueError("tangent-map base must have zero constant term and a linear part")
    out = v
    cap = (n - min_v) // min_u
    for weight in range(1, cap + 1):
        for j in compositions(weight):
            c = coeff(j)
            if c:
                out = out + c * p_nested(j, u, v)
    return out


def tau_apply(u: Series, v: Series) -> Series:
    """The tangent map of exp_l at u, applied to v: v + sum m_J P_J(u; v)."""
    return _weighted_sum(u, v, m_coeff)


def tau_inverse(u: Series, v: Series) -> Series:
    """Inverse tangent map: v + sum n_J P_J(u; v)."""
    return _weighted_sum(u, v, n_coeff)


@cache
def tau_components(n: int) -> tuple[PrimCombo, ...]:
    """tau_0 .. tau_n of the tangent map, as primitive-operation combinations.

    tau_0 = y and tau_k = sum_{i=1..k} 1/(k+1) * 1/(k-i)! <x^(k-i); x, tau_{i-1}>.
    """
    taus = [PrimCombo.single(GY)]
    for k in range(1, n + 1):
        pairs = []
        for i in range(1, k + 1):
            scale = Q(1, (k + 1) * factorial(k - i))
            prefix = (GX,) * (k - i)
            for e, c in taus[i - 1].terms.items():
                pairs.append((su_bracket_expr(prefix, GX, e), scale * c))
        taus.append(PrimCombo(pairs))
    return tuple(taus)


def tau_exp_l(n: int) -> Series:
    """The tangent map applied to y, evaluated at truncation n + 1.

    Cross-checks against gamma_{y d/dx}(exp_l(x)).
    """
    return PrimCombo([kv for tau in tau_components(n) for kv in tau.terms.items()]).evaluate(n + 1)


def tau_inverse_combo(n: int) -> PrimCombo:
    """y + sum n_J P_J(x;y) up to total degree n, symbolically."""
    pairs = [(GY, Q(1))]
    for weight in range(1, n):
        pairs += [(p_nested_expr(j), n_coeff(j)) for j in compositions(weight)]
    return PrimCombo(pairs)


# ---------------------------------------------------------------------------
# The two Baker-Campbell-Hausdorff constructions.


@cache
def bch_monomial(n: int) -> Series:
    """log_l(exp_l(x) exp_l(y)) in the raw monomial basis, truncated at n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return log_l(exp_l("x", n) * exp_l("y", n), n)


def bch_first_order(n: int) -> Series:
    """x + (tangent inverse at x applied to y): the BCH series modulo y-degree >= 2."""
    x = Series.generator("x", n)
    y = Series.generator("y", n)
    return x + tau_inverse(x, y)


def bch_first_order_combo(n: int) -> PrimCombo:
    return PrimCombo.single(GX) + tau_inverse_combo(n)


def _by_degree(combo: PrimCombo) -> list:
    """The (expr, coeff) terms of ``combo`` in ascending degree."""
    return sorted(combo.terms.items(), key=lambda kv: kv[0].degree)


def _cross_bracket(slots, cap: int) -> PrimCombo:
    """Multilinear expansion of the bracket <s_1, ..., s_m; y, z> over
    combination-valued slots, keeping the terms of total degree <= cap.

    ``slots`` lists each slot's terms as :func:`_by_degree` gives them, the
    tail slots y and z last.  A backtracking walk: a slot's loop stops at the
    first term that leaves too little room for the least degrees the later
    slots still need.  A term that antisymmetry alone makes zero
    (:func:`suops._canon` gives None) is not kept.
    """
    if not all(slots):
        return PrimCombo()
    last = len(slots) - 1
    need = [0] * (last + 2)  # need[i]: least degree of slots i..last
    for i in range(last, -1, -1):
        need[i] = need[i + 1] + slots[i][0][0].degree
    out: dict[PrimExpr, Q] = {}

    def walk(i: int, budget: int, coeff: Q, chosen: tuple) -> None:
        room = budget - need[i + 1]
        for e, c in slots[i]:
            d = e.degree
            if d > room:
                break
            if i < last:
                walk(i + 1, budget - d, coeff * c, chosen + (e,))
            else:
                key = su_bracket_expr(chosen[:-1], chosen[-1], e)
                if _canon(key) is not None:
                    prev = out.get(key)
                    out[key] = coeff * c if prev is None else prev + coeff * c

    walk(0, cap, Q(1), ())
    return PrimCombo(out)


def _pj_combo(j: Composition, slots: list, z_terms: list, cap: int) -> PrimCombo:
    """P_J over combination-valued slots; ``slots`` lists the weight(J)
    bracket slots in order and ``z_terms`` fills the innermost position, all
    as :func:`_by_degree` term lists.  An inner level keeps only the terms
    that leave room for the least degrees of the outer slots."""
    inner = z_terms
    idx = len(slots)
    for part in reversed(j):
        idx -= part
        outer = sum(s[0][0].degree for s in slots[:idx])
        combo = _cross_bracket(slots[idx : idx + part] + [inner], cap - outer)
        if not idx or combo.is_zero():
            break
        inner = _by_degree(combo)
    return combo


@cache
def bch_ode(n: int) -> PrimCombo:
    """log_l(exp_l(x) exp_l(y)) in the primitive basis via the Magnus-type ODE.

    Omega(t) = log_l(exp_l(x) exp_l(ty)) satisfies Omega(0) = x and
    Omega' = D(t) + sum_J n_J P_J(Omega(t); D(t)) with the driver
    D(t) = y - Phi(exp_l(x); exp_l(ty); y); the group-like Phi argument
    expands as sum_{m,k>=1} t^k/(m! k!) Phi(x,..,x; y,..,y, y).  The t-power
    k tracks y-degree, so integrating to t = 1 term by term yields the
    full series; evaluation agrees exactly with :func:`bch_monomial`.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    driver: dict[int, PrimCombo] = {0: PrimCombo.single(GY)}
    for k in range(1, n - 1):
        acc = PrimCombo(
            (phi_expr((GX,) * m, (GY,) * (k + 1)), -Q(1, factorial(m) * factorial(k)))
            for m in range(1, n - k)
        )
        if not acc.is_zero():
            driver[k] = acc

    omega: list[PrimCombo] = [PrimCombo.single(GX)]
    omega_terms = [_by_degree(omega[0])]
    driver_terms = {k: _by_degree(d) for k, d in driver.items()}
    for k in range(n):
        rhs = driver[k].terms.copy() if k in driver else {}
        for weight in range(1, n):
            for j in compositions(weight):
                nj = n_coeff(j)
                if not nj:
                    continue
                for d_ord, d_terms in driver_terms.items():
                    rem = k - d_ord
                    if rem < 0:
                        continue
                    for orders in _distributions(rem, weight):
                        slots = [omega_terms[o] for o in orders]
                        for e, c in _pj_combo(j, slots, d_terms, n).terms.items():
                            prev = rhs.get(e)
                            rhs[e] = nj * c if prev is None else prev + nj * c
        scale = Q(1, k + 1)
        omega.append(PrimCombo({e: scale * c for e, c in rhs.items() if e.degree <= n}))
        omega_terms.append(_by_degree(omega[-1]))

    return PrimCombo([kv for part in omega for kv in part.terms.items()]).up_to(n)


# ---------------------------------------------------------------------------
# The formal Magnus integrator.


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Polynomial in a central parameter t with Series coefficients."""

    coeffs: tuple[Series, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a TimeSeries needs at least the t^0 coefficient")
        if len({c.truncation for c in self.coeffs}) != 1:
            raise ValueError("all coefficients must share one truncation")

    @property
    def truncation(self) -> int:
        return self.coeffs[0].truncation

    def coeff(self, k: int) -> Series:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return Series.zero(self.truncation)

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        top = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(top))


def magnus_solve(a: TimeSeries, n_t: int, n_deg: int) -> TimeSeries:
    """Integrate Omega' = A(t) + sum_J n_J P_J(Omega(t); A(t)), Omega(0) = 0.

    Works order by order in t: the t^k coefficient of the right side only
    involves Omega coefficients of order <= k, and formal integration
    divides by k + 1.  Returns Omega up to t^{n_t}, series truncated at n_deg.
    """
    coeffs = tuple(c.truncate(n_deg) for c in a.coeffs)
    omega: list[Series] = [Series.zero(n_deg)]
    for k in range(n_t):
        rhs = coeffs[k] if k < len(coeffs) else Series.zero(n_deg)
        # every Omega slot consumes t-order >= 1, so weight <= k
        for weight in range(1, k + 1):
            for j in compositions(weight):
                nj = n_coeff(j)
                if not nj:
                    continue
                for a_ord in range(0, k - weight + 1):
                    a_part = coeffs[a_ord] if a_ord < len(coeffs) else None
                    if a_part is None or a_part.is_zero():
                        continue
                    # Omega slots take order >= 1 since Omega(0) = 0: slot i
                    # takes o_i + 1 for a distribution o of what is left over
                    for orders in _distributions(k - a_ord - weight, weight):
                        slots = [omega[o + 1] for o in orders]
                        if any(s.is_zero() for s in slots):
                            continue
                        inner = a_part
                        idx = weight
                        for part in reversed(j):
                            level = slots[idx - part : idx]
                            idx -= part
                            inner = su_bracket(level[:-1], level[-1], inner)
                            if inner.is_zero():
                                break
                        if not inner.is_zero():
                            rhs = rhs + nj * inner
        omega.append(rhs / (k + 1))
    return TimeSeries(tuple(omega))

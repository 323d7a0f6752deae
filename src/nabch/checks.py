"""Named identity suites, runnable from the CLI (`bch check`).

Each check evaluates one algebraic law exhaustively over small degrees and
returns a :class:`CheckResult`; the degree argument bounds the monomial
sets, capped where a law's natural habitat is smaller.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial

from . import dsw, hopf, magnus, trees
from .cuts import (
    bch_series,
    closed_form_xmyn,
    coefficient_via_cuts,
    enumerate_bch_cuts,
    enumerate_cuts,
    xmyn_monomial,
)
from .hopf import _graft
from .magma import enumerate_monomials, is_left_normed_word, leaf, left_normed_power, node
from .series import (
    Q,
    Series,
    _accumulate,
    _normalise,
    bernoulli,
    dynkin_bch,
    exp_l,
    left_normed_product,
    project_associative,
)
from .suops import GX, GY, PrimCombo, _add_bracket, associator, p_series, phi, su_bracket


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_series(rng: random.Random, degree: int, truncation: int) -> Series:
    terms = {}
    for _ in range(rng.randint(2, 5)):
        d = rng.randint(1, degree)
        m = rng.choice(enumerate_monomials(d))
        terms[m] = Q(rng.randint(-3, 3), rng.randint(1, 4))
    return Series(truncation, terms, Q(rng.randint(-1, 1)))


def _triple_coproduct(s: Series, left_first: bool):
    pairs = []
    for (a, b), c in hopf.coproduct(s).terms.items():
        for (p, q), k in hopf.coproduct_monomial(a if left_first else b).items():
            key = (p, q, b) if left_first else (a, p, q)
            pairs.append((key, c * k))
    return _normalise(pairs)


def _division_failure(degree: int) -> str:
    """The first case that breaks one of the four division identities

        sum u_(1) \\ (u_(2) v) = sum u_(1) (u_(2) \\ v) = eps(u) v
        sum (v u_(1)) / u_(2) = sum (v / u_(1)) u_(2) = eps(u) v,

    or "" if none does.  First every monomial u of degree <= min(degree, 4)
    against every monomial v of degree <= 2, where eps(u) = 0: the four
    sides are summed over the monomial quotients, each into one dict.  Then
    the series-level divisions on random multi-term U and V with nonzero
    constants, which also exercises their units, constants and truncation.
    """
    left, right = hopf.left_divide_monomial, hopf.right_divide_monomial
    for du in range(1, min(degree, 4) + 1):
        for u in enumerate_monomials(du):
            cp = hopf.coproduct_monomial(u).items()
            for dv in (1, 2):
                for v in enumerate_monomials(dv):
                    sides = ({}, {}, {}, {})
                    for (a, b), c in cp:
                        _accumulate(sides[0], left(a, _graft(b, v)).items(), c)
                        _accumulate(sides[1], ((_graft(a, t), k) for t, k in left(b, v).items()), c)
                        _accumulate(sides[2], right(_graft(v, a), b).items(), c)
                        _accumulate(sides[3], ((_graft(t, b), k) for t, k in right(v, a).items()), c)
                    if any(any(side.values()) for side in sides):
                        return f"u={u!r} v={v!r}"

    rng = random.Random(16)  # apart from the other checks' generator
    n = 4  # below the top degree 3 + 2 of the sums, so truncation acts
    one = Series.one(n)
    for _ in range(3):
        u = Series(n, _random_series(rng, 3, n).terms, rng.choice((-2, -1, 1, 2)))
        v = Series(n, _random_series(rng, 2, n).terms, rng.choice((-1, 1, Q(1, 2))))
        sides = [Series.zero(n)] * 4
        for (a, b), c in hopf.coproduct(u).terms.items():
            sa = one if a is None else Series.monomial(a, n)
            sb = one if b is None else Series.monomial(b, n)
            sides[0] += c * hopf.left_divide(sa, sb * v)
            sides[1] += c * (sa * hopf.left_divide(sb, v))
            sides[2] += c * hopf.right_divide(v * sa, sb)
            sides[3] += c * (hopf.right_divide(v, sa) * sb)
        want = hopf.counit(u) * v
        if any(side != want for side in sides):
            return f"U={u!r} V={v!r}"
    return ""


def check_hopf(degree: int) -> list[CheckResult]:
    out = []
    rng = random.Random(7)
    n = max(2, min(degree, 4))

    ok = True
    for _ in range(4):
        s = _random_series(rng, n, n)
        if _triple_coproduct(s, True) != _triple_coproduct(s, False):
            ok = False
            break
    out.append(CheckResult("coassociativity", ok))

    ok = True
    for _ in range(4):
        s = _random_series(rng, n, n)
        d = hopf.coproduct(s).terms
        if d != {(b, a): c for (a, b), c in d.items()}:
            ok = False
            break
    out.append(CheckResult("cocommutativity", ok))

    ok = True
    for d in range(1, min(degree, 5) + 1):
        for m in enumerate_monomials(d):
            cp = hopf.coproduct_monomial(m)
            left = {b: c for (a, b), c in cp.items() if a is None}
            right = {a: c for (a, b), c in cp.items() if b is None}
            if left != {m: 1} or right != {m: 1}:
                ok = False
    out.append(CheckResult("counit laws", ok))

    detail = _division_failure(degree)
    out.append(CheckResult("division identities", not detail, detail))

    ok = True
    for _ in range(3):
        s = _random_series(rng, n, 2 * n)
        t = _random_series(rng, n, 2 * n)
        if hopf.coproduct(s * t) != hopf.coproduct(s) * hopf.coproduct(t):
            ok = False
    out.append(CheckResult("coproduct is multiplicative", ok))

    return out


def check_suops(degree: int) -> list[CheckResult]:
    out = []
    n = max(3, min(degree, 5))

    ok = True
    for m in range(1, 3):
        for k in range(1, 3):
            if m + k + 1 > n:
                continue
            for xs in itertools.product("xy", repeat=m):
                for ys in itertools.product("xy", repeat=k):
                    u = left_normed_product([Series.generator(v, n) for v in xs])
                    v = left_normed_product([Series.generator(w, n) for w in ys])
                    if not hopf.is_primitive(p_series(u, v, Series.generator("y", n))):
                        ok = False
    out.append(CheckResult("p-operation is primitive", ok))

    ok = True
    x = Series.generator("x", n)
    y = Series.generator("y", n)
    for pre in ([], [x], [y], [x, y]):
        if not (su_bracket(pre, x, y) + su_bracket(pre, y, x)).is_zero():
            ok = False
    out.append(CheckResult("bracket tail antisymmetry", ok))

    ok = True
    base = phi([x], [x, y, y])
    for perm in itertools.permutations([x, y, y]):
        if phi([x], list(perm)) != base:
            ok = False
    if phi([x, y], [y, y]) != phi([y, x], [y, y]):
        ok = False
    out.append(CheckResult("Phi multisymmetry", ok))

    ok = True
    # nonempty-prefix brackets and Phi die under the associative projection
    for val in (su_bracket([x], x, y), phi([x], [y, y]), phi([x, x], [y, y])):
        if not project_associative(val).is_zero():
            ok = False
    proj = project_associative(su_bracket([], x, y))
    want = project_associative(y * x - x * y)
    if proj != want:
        ok = False
    out.append(CheckResult("associative collapse of brackets", ok))

    detail = _bracket_recursion_failure(degree)
    out.append(CheckResult("bracket recursion identity (three letters)", not detail, detail))
    return out


def _bracket_recursion_failure(degree: int) -> str:
    """The first case that breaks (x y) z - (x z) y = -sum x_(1) <x_(2); y, z>
    for x a left-normed word of degree <= min(degree, 3) over x, y, z and y, z
    generators, or "" if none does.  The right side is summed into one dict;
    <b; y, z> has no constant term, since the commutator of its unit part
    has none."""
    nn = min(degree, 3) + 2
    for degw in range(1, min(degree, 3) + 1):
        for letters in itertools.product("xyz", repeat=degw):
            xbar = leaf(letters[0])
            for l in letters[1:]:
                xbar = node(xbar, leaf(l))
            xb = Series.monomial(xbar, nn)
            for gy in "xyz":
                for gz in "xyz":
                    ys = Series.generator(gy, nn)
                    zs = Series.generator(gz, nn)
                    lhs = (xb * ys) * zs - (xb * zs) * ys
                    rhs: dict = {}
                    for (a, b), mult in hopf.coproduct_monomial(xbar).items():
                        br = _add_bracket({}, {b: 1}, ys.terms, zs.terms, nn, -mult)
                        _accumulate(rhs, ((_graft(a, t), k) for t, k in br.items()))
                    if lhs != Series(nn, rhs):
                        return f"word={''.join(letters)} y={gy} z={gz}"
    return ""


def _dsw_failure(degree: int) -> str:
    """The first case that breaks the bracket recursion of gamma_d, for the
    degree derivation and y d/dx, or "" if none does."""
    for du in range(1, min(degree, 4) + 1):
        for u in enumerate_monomials(du):
            for a in ("x", "y"):
                if not dsw.dsw_identity_check(u, a, dsw.DEGREE):
                    return f"u={u!r} a={a} (degree derivation)"
                if not dsw.dsw_identity_check(u, a, dsw.y_partial_x):
                    return f"u={u!r} a={a} (y d/dx)"
    return ""


def check_dsw(degree: int) -> list[CheckResult]:
    out = []

    detail = _dsw_failure(degree)
    out.append(CheckResult("Dynkin-Specht-Wever recursion", not detail, detail))

    ok = True
    for d in range(1, min(degree, 5) + 1):
        for m in enumerate_monomials(d):
            if not is_left_normed_word(m):
                continue
            combo = dsw.bracketize_word(m)
            if combo.evaluate(d) != dsw.gamma(dsw.DEGREE, Series.monomial(m, d)):
                ok = False
    out.append(CheckResult("symbolic bracketization", ok))

    n = max(degree, 3)
    ok = dsw.gamma(dsw.y_partial_x, exp_l("x", n + 1)) == magnus.tau_exp_l(n)
    out.append(CheckResult("tangent map equals gamma of y d/dx", ok))

    ok = True
    # gamma_deg(a(bc)) = eval of the (ab)c combination minus 3 (a,b,c)
    nn = 3
    a, b, c = (Series.generator(v, nn) for v in "xyz")
    am, bm, cm = leaf("x"), leaf("y"), leaf("z")
    lhs = dsw.gamma(dsw.DEGREE, Series.monomial(node(am, node(bm, cm)), nn))
    combo = dsw.bracketize_word(node(node(am, bm), cm))
    rhs = combo.evaluate(nn) - 3 * associator(a, b, c)
    out.append(CheckResult("mixed-association correction", lhs == rhs))
    return out


def check_magnus(degree: int) -> list[CheckResult]:
    out = []
    n = max(2, min(degree, 5))

    ok = True
    for w1 in range(1, 3):
        for w2 in range(1, 3):
            for j1 in magnus.compositions(w1):
                for j2 in magnus.compositions(w2):
                    nested = magnus.p_nested_expr(j1, GX, magnus.p_nested_expr(j2))
                    if magnus.p_nested_expr(j1 + j2) is not nested:
                        ok = False
    out.append(CheckResult("P_J composition law", ok))

    nn = min(degree, 5) + 1
    y = PrimCombo.single(GY)
    ys = Series.generator("y", nn)
    ok = magnus.tau_apply(magnus.tau_inverse(y, nn), nn).evaluate(nn) == ys
    ok = ok and magnus.tau_inverse(magnus.tau_apply(y, nn), nn).evaluate(nn) == ys
    out.append(CheckResult("tangent map inverse law", ok))

    b = magnus.bch_monomial(n)
    ok = magnus.bch_ode(n).evaluate(n) == b
    fo = magnus.bch_first_order(n)
    for m, c in b.terms.items():
        if m.ydeg <= 1 and fo.coefficient(m) != c:
            ok = False
    out.append(CheckResult("pipeline agreement", ok))

    ok = dynkin_bch(n) == project_associative(b)
    out.append(CheckResult("associative collapse equals Dynkin series", ok))

    ok = True
    for k in range(1, 9):
        if magnus.n_coeff((1,) * k) != _bern_over_fact(k):
            ok = False
        if k >= 2 and trees.woon_level_sum(k) != _bern_over_fact(k):
            ok = False
    out.append(CheckResult("n over all-ones equals B_k/k!", ok))
    return out


def _bern_over_fact(k: int):
    return bernoulli(k) / factorial(k)


def check_cuts(degree: int) -> list[CheckResult]:
    out = []
    n = min(degree, 6)
    b = magnus.bch_monomial(n)

    monomials = (m for d in range(1, n + 1) for m in enumerate_monomials(d))
    detail = next((repr(m) for m in monomials if coefficient_via_cuts(m) != b.coefficient(m)), "")
    if not detail:
        whole = bch_series(n)
        if whole != b:  # the cut recurrence summed over all monomials, against route 1
            diff = set(whole.terms.items()) ^ set(b.terms.items())
            d = min((m.degree for m, _ in diff), default=0)  # 0: the constant term
            detail = f"bch_series differs at degree {d}"
    out.append(CheckResult("cut formula matches series coefficients", not detail, detail))

    ok = True
    for mm in range(1, 4):
        for nnn in range(1, 4):
            if mm + nnn > min(degree + 1, 7):
                continue
            if closed_form_xmyn(mm, nnn) != coefficient_via_cuts(xmyn_monomial(mm, nnn)):
                ok = False
    out.append(CheckResult("closed form for x^m y^n", ok))

    ok = True
    for i in range(1, 5):
        for j in range(1, 5):
            if i + j > min(degree + 2, 8):
                continue
            if len(enumerate_bch_cuts(xmyn_monomial(i, j))) != i * j + 1:
                ok = False
    for i in range(1, min(degree, 6) + 1):
        if len(enumerate_bch_cuts(left_normed_power("x", i))) != i:
            ok = False
        if len(enumerate_bch_cuts(left_normed_power("y", i))) != i:
            ok = False
    out.append(CheckResult("BCH-cut counts", ok))

    ok = True
    for d in range(1, n + 1):
        for m in enumerate_monomials(d):
            intervals = []
            for cut in enumerate_cuts(m):
                intervals.extend(cut.positions())
            for (a1, b1) in intervals:
                for (a2, b2) in intervals:
                    if a1 <= b2 and a2 <= b1:  # overlap
                        if not ((a1 <= a2 and b2 <= b1) or (a2 <= a1 and b1 <= b2)):
                            ok = False
    out.append(CheckResult("branches are nested or disjoint", ok))
    return out


SUITES = {
    "hopf": check_hopf,
    "suops": check_suops,
    "dsw": check_dsw,
    "magnus": check_magnus,
    "cuts": check_cuts,
}


def run_suite(name: str, degree: int) -> list[CheckResult]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(
                CheckResult(f"{key}.{r.name}", r.passed, r.detail) for r in SUITES[key](degree)
            )
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](degree)

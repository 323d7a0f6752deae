"""Command-line front end.

Subcommands: expand, coeff, check, bernoulli, nj, tau, log.  Every command
can emit text or a JSON envelope {version, command, parameters, result};
rationals are always exact "p/q" strings and repeated invocations are
byte-identical.  Exit codes: 0 success, 1 check failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import accumulate
from math import factorial

from . import checks, magnus, trees
from .cuts import bch_series, coefficient_via_cuts
from .magma import ParseError, parse
from .series import (
    bernoulli,
    exp_l,
    exp_r,
    log_l,
    log_l_series,
    series_json_text,
)
from .suops import PrimCombo

SCHEMA_VERSION = "1"
DEFAULT_DEGREE = 5
# expand --basis monomial builds its series by the cut recurrence
# (cuts.bch_series), and log --series product and coeff --method series|both
# by route 1 (log_l substitution), both on int numerators over one
# denominator.  Whole process, on one core of a shared 2-core machine
# (Python 3.11.7), expand took about 0.8 s at degree 8 (55 MB peak as text,
# 77 MB as JSON) and 5-6 s at 9 (268 MB as text, 367 MB as JSON); route 1
# took about 1.8 s at 89 MB at degree 8.  The cap stays 8.
DEFAULT_CAP = 8
# On one core of a shared 2-core machine (Python 3.11), expand --basis
# primitive took about 0.5 s at degree 7, 3 s at 74 MB peak at 8 and 23 s at
# 360 MB peak at 9 (21 s at 417 MB as JSON).  --basis both also evaluates
# every term, which dominates: about 0.3 s at degree 6, 2.2 s at 53 MB peak at
# 7 (59 MB as JSON) and 24 s at 405 MB peak at 8 as text.
PRIMITIVE_CAP = 8
PRIMITIVE_NOTE = " of the primitive route, which took about 23 s and 360 MB at degree 9"
BOTH_CAP = 7
BOTH_NOTE = " of expand --basis both, which takes about 7 s and 195 MB at degree 8"
# The cut route's left-spine recurrence takes about 3 ms for the slowest
# degree-32 coefficient on the same machine; the cap keeps it bounded.
CUTS_CAP = 32
CUTS_NOTE = " of the cut route"
# Woon's, Fuchs's and the composition-tree route to B_k/k! grow as 2^k: at
# k = 16 each took up to 2 s on the same machine, and each +2 in k costs
# about 4x.
BERNOULLI_CAP = 16
BERNOULLI_NOTE = " of the 2^k Bernoulli methods"
# The recurrence for B_k makes O(k^2) operations on rationals of O(k log k)
# digits: k = 600 took about 2 s on the same machine and k = 1,000 about 9 s.
# Near k = 1,560 the value passes Python's 4,300-digit limit on int-to-str
# conversion.  A fixed bound, like MAX_NESTING, which no degree cap raises.
MAX_RECURRENCE_K = 600
RECURRENCE_NOTE = " of the recurrence, which took about 2 s at k = 600 and 9 s at k = 1,000"
# n_J sums O(s^2) products over the slices of a composition J of weight s:
# the all-ones J took about 0.5 s at s = 256 and 2 s at s = 400 on the same
# machine.  The cap is on the weight, which bounds the length and each part.
NJ_CAP = 256
NJ_NOTE = " of nj, whose all-ones tuple took about 2 s at weight 400"
# Parsing recurses once per nesting level; the cut route does not, as it walks
# deep monomials from an explicit stack.  Under the default recursion limit of
# 1000, a right nest of depth 995 parses and one of depth 1,200 raises
# RecursionError; the bound leaves room for a caller's own frames.
MAX_NESTING = 400
CAP_ENV = "BCH_MAX_DEGREE"


class UsageError(Exception):
    pass


def _emit(args, command: str, parameters: dict, result_json, result_text) -> None:
    """Print the result in the chosen format; ``result_json`` and
    ``result_text`` are thunks returning text, and only the chosen one is
    called.  The JSON envelope {version, command, parameters, result} is
    composed as text around the result's JSON text, in ``json.dumps``'s
    layout, so a large result is encoded once and never as nested objects."""
    if getattr(args, "format", "text") == "json":
        print(
            f'{{"version": {json.dumps(SCHEMA_VERSION)}, "command": {json.dumps(command)}, '
            f'"parameters": {json.dumps(parameters)}, "result": {result_json()}}}'
        )
    else:
        print(result_text())


def _emit_value(args, command: str, parameters: dict, key: str, value) -> None:
    """Emit one exact rational: {key: "p/q"} in JSON, "p/q" as text."""
    _emit(args, command, parameters, lambda: json.dumps({key: str(value)}), lambda: str(value))


def _degree_cap(default: int) -> int:
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{CAP_ENV} must be an integer, got {raw!r}")


def _check_degree(n: int, cap_flag: int | None, default: int = DEFAULT_CAP, note: str = "") -> None:
    """Refuse degrees above the cap: --max-degree, else the environment, else
    ``default``; ``note`` tells what the refused degree would cost."""
    cap = cap_flag if cap_flag is not None else _degree_cap(default)
    if n < 1:
        raise UsageError("degree must be >= 1")
    if n > cap:
        raise UsageError(
            f"degree {n} exceeds the cap {cap}{note}; raise --max-degree or {CAP_ENV} explicitly"
        )


def _combo_by_degree(combo: PrimCombo, style: str) -> list[str]:
    lines = []
    for d in range(1, combo.max_degree() + 1):
        part = combo.component(d)
        if not part.is_zero():
            lines.append(f"degree {d}: {part.to_text(latex=(style == 'latex'))}")
    return lines


def cmd_expand(args) -> int:
    n = args.degree
    if args.basis == "monomial":
        _check_degree(n, args.max_degree)
    elif args.basis == "primitive":
        _check_degree(n, args.max_degree, PRIMITIVE_CAP, PRIMITIVE_NOTE)
    else:
        _check_degree(n, args.max_degree, BOTH_CAP, BOTH_NOTE)
    params = {"degree": n, "basis": args.basis, "format": args.format}
    series = bch_series(n) if args.basis != "primitive" else None
    combo = magnus.bch_ode(n) if args.basis != "monomial" else None
    agree = combo.evaluate(n) == series if args.basis == "both" else None

    def as_json() -> str:
        fields = []
        if series is not None:
            fields.append(f'"monomial": {series_json_text(series)}')
        if combo is not None:
            fields.append(f'"primitive": {json.dumps(combo.to_json())}')
        if agree is not None:
            fields.append(f'"bases_agree": {json.dumps(agree)}')
        return "{" + ", ".join(fields) + "}"

    def as_text() -> str:
        lines = []
        if series is not None:
            lines.append(series.to_text(latex=args.format == "latex"))
        if combo is not None:
            lines.extend(_combo_by_degree(combo, args.format))
        if agree is not None:
            lines.append(f"bases agree: {str(agree).lower()}")
        return "\n".join(lines)

    _emit(args, "expand", params, as_json, as_text)
    return 0


def cmd_coeff(args) -> int:
    depth = max(accumulate((ch == "(") - (ch == ")") for ch in args.monomial), default=0)
    if depth > MAX_NESTING:
        raise UsageError(f"monomial nested {depth} deep exceeds the nesting bound {MAX_NESTING}")
    try:
        m = parse(args.monomial)
    except ParseError as exc:
        raise UsageError(f"bad monomial: {exc}")
    if args.method == "cuts":
        _check_degree(m.degree, args.max_degree, CUTS_CAP, CUTS_NOTE)
    else:
        _check_degree(m.degree, args.max_degree)
    params = {"monomial": args.monomial, "method": args.method}
    if args.method == "cuts":
        value = coefficient_via_cuts(m)
        _emit_value(args, "coeff", params, "value", value)
    elif args.method == "series":
        value = magnus.bch_monomial(m.degree).coefficient(m)
        _emit_value(args, "coeff", params, "value", value)
    else:
        via_cuts = coefficient_via_cuts(m)
        via_series = magnus.bch_monomial(m.degree).coefficient(m)
        agree = via_cuts == via_series
        _emit(
            args,
            "coeff",
            params,
            lambda: json.dumps({"cuts": str(via_cuts), "series": str(via_series), "match": agree}),
            lambda: f"cuts: {via_cuts}\nseries: {via_series}\nmatch: {str(agree).lower()}",
        )
        if not agree:
            return 1
    return 0


def cmd_check(args) -> int:
    _check_degree(args.degree, args.max_degree)
    results = checks.run_suite(args.suite, args.degree)
    params = {"suite": args.suite, "degree": args.degree}
    payload = [
        {"name": r.name, "passed": r.passed, **({"detail": r.detail} if r.detail else {})}
        for r in results
    ]
    all_ok = all(r.passed for r in results)
    lines = []
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        suffix = f"  ({r.detail})" if (r.detail and not r.passed) else ""
        lines.append(f"{mark:4s} {r.name}{suffix}")
    lines.append(f"{'all checks passed' if all_ok else 'FAILURES detected'}")
    _emit(
        args,
        "check",
        params,
        lambda: json.dumps({"checks": payload, "passed": all_ok}),
        lambda: "\n".join(lines),
    )
    return 0 if all_ok else 1


def cmd_bernoulli(args) -> int:
    k = args.k
    if k < 0:
        raise UsageError("k must be >= 0")
    method = args.method
    if method != "recurrence":
        _check_degree(max(k, 1), args.max_degree, BERNOULLI_CAP, BERNOULLI_NOTE)
    elif k > MAX_RECURRENCE_K:
        raise UsageError(f"k = {k} exceeds the bound {MAX_RECURRENCE_K}{RECURRENCE_NOTE}")
    try:
        if method == "recurrence":
            value = bernoulli(k) / factorial(k)
        elif method == "woon":
            value = trees.woon_level_sum(k)
        elif method == "fuchs":
            value = trees.fuchs_level_sum(k, trees.bernoulli_weights)
        else:  # nj
            if k < 1:
                raise ValueError("the composition route needs k >= 1")
            value = trees.nj_tree_sum((1,) * k)
    except ValueError as exc:
        raise UsageError(str(exc))
    params = {"k": k, "method": method}
    _emit_value(args, "bernoulli", params, "b_over_factorial", value)
    return 0


def cmd_nj(args) -> int:
    try:
        j = tuple(int(p) for p in args.tuple.split(","))
        if not j or any(p < 1 for p in j):
            raise ValueError
    except ValueError:
        raise UsageError(f"--tuple must be comma-separated integers >= 1, got {args.tuple!r}")
    _check_degree(sum(j), args.max_degree, NJ_CAP, NJ_NOTE)
    value = magnus.n_coeff(j)
    params = {"tuple": list(j)}
    _emit_value(args, "nj", params, "value", value)
    return 0


def cmd_tau(args) -> int:
    n = args.n
    if n < 0:
        raise UsageError("n must be >= 0")
    _check_degree(max(n, 1), args.max_degree)
    combo = magnus.tau_components(n)[n]
    params = {"n": n}
    _emit(
        args,
        "tau",
        params,
        lambda: json.dumps(combo.to_json()),
        lambda: combo.to_text(latex=args.format == "latex"),
    )
    return 0


_LOG_TARGETS = ("1+x", "exp_l", "exp_r", "product")


def cmd_log(args) -> int:
    n = args.degree
    _check_degree(n, args.max_degree)
    name = args.series
    if name == "1+x":
        series = log_l_series(n)
    elif name == "exp_l":
        series = log_l(exp_l("x", n))
    elif name == "exp_r":
        series = log_l(exp_r("x", n))
    else:  # "product"; argparse refuses other names
        series = magnus.bch_monomial(n)
    params = {"series": name, "degree": n}
    _emit(
        args,
        "log",
        params,
        lambda: series_json_text(series),
        lambda: series.to_text(latex=args.format == "latex"),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bch",
        description="Exact non-associative Baker-Campbell-Hausdorff computations.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        p.add_argument(
            "--max-degree",
            type=int,
            default=None,
            help=(
                f"override the degree cap (default {DEFAULT_CAP}, {PRIMITIVE_CAP} for "
                f"expand --basis primitive, {BOTH_CAP} for expand --basis both, "
                f"{CUTS_CAP} for coeff --method cuts, "
                f"{BERNOULLI_CAP} on k for bernoulli --method woon|fuchs|nj, {NJ_CAP} on the "
                f"tuple's sum for nj; env {CAP_ENV})"
            ),
        )

    p = sub.add_parser("expand", help="the BCH series itself")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--basis", choices=("monomial", "primitive", "both"), default="monomial")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("coeff", help="one BCH coefficient, by cuts and/or the series")
    p.add_argument("--monomial", required=True, help='e.g. "(x(xy))"')
    p.add_argument("--method", choices=("cuts", "series", "both"), default="cuts")
    common(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("check", help="run an identity suite")
    p.add_argument("--suite", choices=(*checks.SUITES, "all"), default="all")
    p.add_argument("--degree", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bernoulli", help="B_k/k! by four routes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=("woon", "fuchs", "nj", "recurrence"), default="recurrence")
    common(p)
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("nj", help="the coefficient n_J of a composition")
    p.add_argument("--tuple", required=True, help="comma-separated parts, e.g. 2,1")
    common(p)
    p.set_defaults(func=cmd_nj)

    p = sub.add_parser("tau", help="a homogeneous component of the tangent map")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("log", help="left logarithm of a named series")
    p.add_argument("--series", choices=_LOG_TARGETS, default="1+x")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    common(p)
    p.set_defaults(func=cmd_log)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Cache hygiene: every memo in nabch is a functools.cache, so each one can be
found, inspected with cache_info() and emptied with cache_clear()."""

import importlib
import pkgutil
import sys
from fractions import Fraction
from math import comb

import pytest

import nabch
from nabch.checks import run_suite
from nabch.cuts import bch_series, coefficient_via_cuts
from nabch.magma import enumerate_monomials, parse
from nabch.magnus import bch_monomial, bch_ode
from nabch.series import bernoulli, tau_factorial


def _modules():
    names = sorted(info.name for info in pkgutil.iter_modules(nabch.__path__))
    return [nabch, *(importlib.import_module(f"nabch.{name}") for name in names)]


def _memos():
    return {
        f"{mod.__name__}.{name}": obj
        for mod in _modules()
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__
    }


def _results():
    return (
        bch_monomial(5),
        bch_series(5),
        bch_ode(4),
        [coefficient_via_cuts(w) for d in range(1, 6) for w in enumerate_monomials(d)],
        run_suite("all", 3),
    )


def test_clearing_every_memo_empties_it_and_recomputes_equal_results():
    memos = _memos()
    assert len(memos) >= 22, sorted(memos)
    before = _results()
    for memo in memos.values():
        memo.cache_clear()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == dict.fromkeys(
        memos, 0
    )
    assert _results() == before


def test_errors_are_not_memoised():
    two_letters = parse("(xy)")
    for _ in range(3):
        with pytest.raises(ValueError):
            enumerate_monomials(0)
        with pytest.raises(ValueError):
            tau_factorial(two_letters)


def test_the_only_growing_module_dicts_are_the_intern_pools():
    # a module-level dict, list or set is a memo that cache_clear() cannot reach
    containers = {
        f"{mod.__name__}.{name}"
        for mod in _modules()
        for name, obj in vars(mod).items()
        if isinstance(obj, (dict, list, set)) and not name.startswith("__")
    }
    # SUITES is the fixed table of check suites, filled once at import
    assert containers == {"nabch.magma._POOL", "nabch.suops._EXPR_POOL", "nabch.checks.SUITES"}


def test_a_cold_bernoulli_call_recurses_a_bounded_depth():
    def depth():
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        return n

    # the recurrence written out iteratively, as an independent oracle
    want = [Fraction(1)]
    for n in range(1, 301):
        want.append(-sum(comb(n + 1, k) * want[k] for k in range(n)) / (n + 1))
    bernoulli.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 30)
    try:
        bernoulli(300)
    finally:
        sys.setrecursionlimit(limit)
    assert [bernoulli(n) for n in range(301)] == want


def test_enumeration_memo_keys_on_the_normalised_alphabet():
    from nabch.magma import GENERATORS, _monomials

    _monomials.cache_clear()
    for d in range(1, 9):
        assert enumerate_monomials(d) == enumerate_monomials(d, GENERATORS)
        assert enumerate_monomials(d, ["y", "x"]) == enumerate_monomials(d)
    assert _monomials.cache_info().currsize == 8

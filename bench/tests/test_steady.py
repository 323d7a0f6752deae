"""The steadiness command's verdict, on made-up sets and end to end with
stubbed runs."""

import json

import pytest

import steady

METRICS = {
    "setup_s": {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    "wall_s": {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
}


def _set(wall, setup=None, failed=0, attempted=10):
    setup = setup or [0.1] * len(wall)
    return {"metrics": {"wall_s": wall, "setup_s": setup}, "failed": failed, "attempted": attempted}


def _ok(rows):
    return {r["metric"]: r["ok"] for r in rows}


def test_steady_sets_agree():
    a = _set([1.0, 1.01, 0.99, 1.02, 0.98])
    b = _set([1.01, 1.0, 1.02, 0.99, 1.0])
    assert all(_ok(steady.verdict([a, b], METRICS)).values())


def test_wide_spread_fails_for_every_metric():
    a = _set([1.0, 1.5, 0.7, 1.3, 0.8], setup=[0.1, 0.2, 0.05, 0.15, 0.3])
    ok = _ok(steady.verdict([a], METRICS))
    assert ok["wall_s"] is False and ok["setup_s"] is False


def test_sets_must_agree_in_either_direction():
    a = _set([1.0] * 5)
    slower = _set([1.2] * 5)
    faster = _set([0.8] * 5)
    assert _ok(steady.verdict([a, slower], METRICS))["wall_s"] is False
    assert _ok(steady.verdict([a, faster], METRICS))["wall_s"] is False
    assert steady.verdict([a, faster], METRICS)[1]["worse_by"] == [pytest.approx(-0.2)]


def test_failed_share_must_match_exactly():
    a = _set([1.0] * 5, failed=1, attempted=10)
    b = _set([1.0] * 5, failed=2, attempted=20)
    c = _set([1.0] * 5, failed=2, attempted=19)
    assert _ok(steady.verdict([a, b], METRICS))["failed_share"] is True
    assert _ok(steady.verdict([a, c], METRICS))["failed_share"] is False


def test_command_runs_every_workload_in_two_sets(monkeypatch, capsys):
    calls = []

    def fake_run(workload, seed):
        calls.append((workload, seed))
        value = 1.0 + 0.001 * (seed % 3)
        return {
            "failed": 0,
            "attempted": 1,
            "metrics": {m: {"value": value, "unit": "s"} for m in steady.load_bounds()[0]},
            "raw": {"wall_s": value, "cal_before_ms": 2.5, "cal_after_ms": 2.5},
        }

    monkeypatch.setattr(steady, "run_once", fake_run)
    assert steady.main(["--runs", "4", "--sets", "2"]) == 0
    _, workloads = steady.load_bounds()
    assert sorted({w for w, _ in calls}) == sorted(workloads)
    assert len(calls) == 2 * 4 * len(workloads)
    assert len({s for _, s in calls}) == 8
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["ok"] and set(report["report"]) == set(workloads)

"""Calibration probes of a sample."""

import gc
import time

import sample


def test_calibrate_gives_one_rate_per_round():
    rates = sample.calibrate(3, 500)
    assert len(rates) == 3 and all(r > 0 for r in rates)
    assert gc.isenabled()


def test_probes_fire_along_an_operation_and_are_taken_off():
    with sample.Probes() as probes:
        end = time.perf_counter() + 3 * sample.PROBE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(probes.rates) >= 2
    assert 0 < probes.spent < 3 * sample.PROBE_PERIOD_S
    out = sample.run_command(["nj", "--tuple", "2,1", "--format", "json"], sample.Probes())
    assert out["rc"] == 0 and out["wall_s"] > 0


def test_operation_latency_is_the_median_over_samples():
    import run

    cal = run.REF_CAL_S
    samples = [
        {"cal_s": cal, "latencies_s": [1.0, 2.0]},
        {"cal_s": 2 * cal, "latencies_s": [2.0, 40.0]},  # a slow core, and a stall
        {"cal_s": cal, "latencies_s": [1.0, 2.0]},
    ]
    assert run.operation_latencies(samples) == [1.0, 2.0]

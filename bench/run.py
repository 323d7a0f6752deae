"""Benchmark of the nabch package: one workload per run, or all of them.

    python3 bench/run.py --workload coeff-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # run length from BENCHMARK.json

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each sample is a fresh interpreter
(sample.py), because every CLI user pays for the program's set-up and for
filling its module-level caches.  Samples run one after another, one
process at a time, until ``--seconds`` have passed; every sample's output
is checked (workloads.py) before the run reports.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced samples, adds one sample under cProfile, and reports the per-layer
metrics and the tracing overhead instead.  Timings are reported at a
reference core speed (:func:`at_reference_speed`, README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE = os.path.join(HERE, "sample.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, SRC)

from spans import SPAN_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # extra set-up-only interpreters per run, for a steady setup_s
# Seconds per 1000 steps of sample.calibrate's kernel on an uncontended core
# of the reference machine (see README); timings are reported at this speed.
REF_CAL_S = 0.0025
RUN_BUDGET_S = 170  # a run ends within this, or fails

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
]
PER_LAYER = [(name, "count" if name.endswith(".calls") else "s") for name, _, _ in SPAN_METRICS] + [
    ("series.fraction_new.calls", "count"),
    ("cuts.cuts_enumerated", "count"),
    ("cuts.bch_cuts_kept", "count"),
    ("cuts.bch_cut_share", "ratio"),
    ("trace.overhead_s", "s"),
]


class SampleError(RuntimeError):
    """A sample process could not run at all (not a wrong output)."""


def spawn(request: dict, mode: str, give_up_at: float) -> dict:
    """Run one sample in a fresh interpreter and return its result, with the
    set-up time measured from the moment of spawning."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, SAMPLE],
        input=json.dumps(dict(request, mode=mode)),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=max(1.0, give_up_at - started),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - started
    return result


def at_reference_speed(samples: list[dict], key) -> float:
    """Sum of a timing over samples, divided by the summed calibration time
    of the same samples, in seconds at the reference speed."""
    return REF_CAL_S * sum(key(s) for s in samples) / sum(s["cal_s"] for s in samples)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def operation_latencies(samples: list[dict]) -> list[float]:
    """Each operation's latency at the reference speed, as the median over
    the samples of a run, which all make the same operations in the same
    order.  The median over samples keeps what an operation costs and drops
    the moments the shared host stalled one sample (README.md)."""
    scaled = [[t * REF_CAL_S / s["cal_s"] for t in s["latencies_s"]] for s in samples]
    return [statistics.median(per_op) for per_op in zip(*scaled)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    request = dict(wl.request(seed), workload=name)
    give_up_at = time.monotonic() + RUN_BUDGET_S
    setups = [spawn(request, "setup", give_up_at) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        plain.append(spawn(request, "plain", give_up_at))
        if trace:
            traced.append(spawn(request, "spans", give_up_at))
        if time.monotonic() >= deadline:
            break
    profiled = [spawn(request, "profile", give_up_at)] if trace else []

    reference = wl.reference(request)
    attempted = failed = 0
    problems: list[str] = []
    for sample in plain + traced + profiled:
        bad, found = wl.check(request, sample, reference)
        attempted += wl.ops_per_sample
        failed += bad
        problems += found
    for p in problems[:20]:
        print(f"[{name}] {p}", file=sys.stderr)

    wall = at_reference_speed(plain, lambda s: s["wall_s"])
    if trace:
        fastest = min(traced, key=lambda s: s["wall_s"] / s["cal_s"])
        speed = REF_CAL_S / fastest["cal_s"]
        values = {
            m: v * speed if m.endswith("_s") else v for m, v in fastest["layers"].items()
        }
        values["series.fraction_new.calls"] = profiled[0]["fraction_new"]
        enumerated = values["cuts.cuts_enumerated"]
        values["cuts.bch_cut_share"] = values["cuts.bch_cuts_kept"] / enumerated if enumerated else 0.0
        values["trace.overhead_s"] = at_reference_speed(traced, lambda s: s["wall_s"]) - wall
        units = PER_LAYER
    else:
        latencies = operation_latencies(plain)
        values = {
            "setup_s": at_reference_speed(setups + plain, lambda s: s["setup_s"]),
            "wall_s": wall,
            "cpu_s": at_reference_speed(plain, lambda s: s["cpu_s"]),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "query_p50_ms": 1000 * percentile(latencies, 50),
            "query_p99_ms": 1000 * percentile(latencies, 99),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units},
        "samples": len(plain),
        # Unscaled figures, beside the scaled ones, so that a change of the
        # divisor itself shows: the raw median wall time, and the kernel's
        # time per 1000 steps before and after the operation.
        "raw": {
            "wall_s": statistics.median(s["wall_s"] for s in plain),
            "cal_before_ms": 1000 * statistics.median(s["cal_before_s"] for s in plain),
            "cal_after_ms": 1000 * statistics.median(s["cal_after_s"] for s in plain),
        },
    }


def run_seconds() -> int:
    with open(SPEC) as f:
        return json.load(f)["run_seconds"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nabch", "cli.py")):
        print(f"error: no nabch sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    seconds = run_seconds() if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, seconds, bool(args.trace))
    except (SampleError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, rep in reports.items():
        print(f"{name}: attempted {rep['attempted']}, failed {rep['failed']}, samples {rep['samples']}")
        for metric, v in rep["metrics"].items():
            print(f"  {metric:36s} {v['value']:>16.6f} {v['unit']}")
        print(f"  raw: {json.dumps(rep['raw'])}")
    if len(reports) == 1:
        rep = reports[names[0]]
        final = {k: rep[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{name}/{m}": v for name, r in reports.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

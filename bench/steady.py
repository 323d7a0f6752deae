"""Steadiness check: run every workload in sets of seeded runs and report
whether each end-to-end metric agrees within its bound.

    python3 bench/steady.py --runs 10 --sets 2

Each run is ``run.py --workload W --seed S --trace 0`` with a distinct seed
and the run length of BENCHMARK.json.  Within a set, a metric's spread is
the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; it must
stay within the metric's bound from BENCHMARK.json.  Across sets, every
later set's median must lie within the bound of the first set's, in either
direction (``worse_by`` is signed: above 0 is worse), and the share of
failed operations must be identical.  Beside the verdict it prints, per
set, the median unscaled wall time and calibration-kernel times that run.py
reports, so that a shift of the divisor can be told from a shift of the
program.  Exit status 0 when everything holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds() -> tuple[dict[str, dict], list[str]]:
    """The end-to-end metrics by name and the workload names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, [w["name"] for w in spec["workloads"]]


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def verdict(sets: list[dict], metrics: dict[str, dict]) -> list[dict]:
    """Judge the sets of one workload.

    ``sets`` holds, per set, {"metrics": {name: [values]}, "failed": n,
    "attempted": n}.  Returns one row per metric with the spreads, the
    medians and whether it holds, plus a row for the failed share.
    """
    rows = []
    for name, spec in metrics.items():
        values = [s["metrics"][name] for s in sets]
        spreads = [spread(v) for v in values]
        medians = [statistics.median(v) for v in values]
        drift = [worse_by(medians[0], m, spec["better"]) for m in medians[1:]]
        rows.append(
            {
                "metric": name,
                "bound": spec["bound"],
                "spreads": spreads,
                "medians": medians,
                "worse_by": drift,
                "ok": all(sp <= spec["bound"] for sp in spreads)
                and all(abs(d) <= spec["bound"] for d in drift),
            }
        )
    shares = [(s["failed"], s["attempted"]) for s in sets]
    same = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
    rows.append({"metric": "failed_share", "shares": shares, "ok": same})
    return rows


def run_once(workload: str, seed: int) -> dict:
    """One run's final JSON object, plus the unscaled figures of its ``raw:`` line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    out["raw"] = next(json.loads(l.split("raw:", 1)[1]) for l in lines if l.strip().startswith("raw:"))
    return out


def main(argv=None) -> int:
    metrics, workloads = load_bounds()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    data = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            data[w].append({"metrics": {m: [] for m in metrics}, "raw": [], "failed": 0, "attempted": 0})
        for r in range(args.runs):
            seed = args.first_seed + s * args.runs + r
            for w in workloads:  # interleaved, so drift over time hits every workload alike
                out = run_once(w, seed)
                cur = data[w][s]
                cur["failed"] += out["failed"]
                cur["attempted"] += out["attempted"]
                cur["raw"].append(out["raw"])
                for m in metrics:
                    cur["metrics"][m].append(out["metrics"][m]["value"])
                print(f"set {s + 1} run {r + 1} seed {seed} {w}: "
                      + " ".join(f"{m}={out['metrics'][m]['value']:.6g}" for m in metrics)
                      + " raw " + " ".join(f"{k}={v:.6g}" for k, v in out["raw"].items()),
                      file=sys.stderr, flush=True)
    all_ok = True
    report = {}
    for w in workloads:
        rows = verdict(data[w], metrics)
        report[w] = {"rows": rows, "values": data[w]}
        print(f"{w}:")
        for row in rows:
            all_ok &= row["ok"]
            mark = "ok  " if row["ok"] else "FAIL"
            if row["metric"] == "failed_share":
                print(f"  {mark} failed/attempted per set: {row['shares']}")
                continue
            spreads = " ".join(f"{sp:.4f}" for sp in row["spreads"])
            medians = " ".join(f"{m:.6g}" for m in row["medians"])
            drift = " ".join(f"{d:+.4f}" for d in row["worse_by"])
            print(f"  {mark} {row['metric']:14s} bound {row['bound']:.2f}  spread {spreads}"
                  f"  median {medians}  worse_by {drift}")
        for key in data[w][0]["raw"][0]:
            medians = " ".join(f"{statistics.median(r[key] for r in st['raw']):.6g}" for st in data[w])
            print(f"  raw  {key:14s} median {medians}")
    print(json.dumps({"ok": all_ok, "report": report}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

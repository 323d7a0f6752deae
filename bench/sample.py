"""One benchmark sample, run in a fresh interpreter by run.py.

The interpreter first imports ``nabch.cli`` and builds its parser, exactly
what every CLI invocation pays, and notes the monotonic clock; run.py
subtracts the moment it spawned this process to get the set-up time.  The
request then arrives as JSON on stdin:

    {"workload": name, "mode": "setup" | "plain" | "spans" | "profile",
     "argv": [...]}          one CLI command through nabch.cli.main
     "monomials": [...]}     coefficient queries through cuts.coefficient_via_cuts

and one JSON line goes to stdout with the raw output and the measurements.
``spans`` mode traces the operation (see spans.py); ``profile`` mode runs it
under cProfile to count Fraction constructions.  Every sample also times a
calibration kernel (:func:`calibrate`) before and after the operation, and
along it (:class:`Probes`), except under cProfile;
``cal_s`` is the kernel's mean time per 1000 steps, by which run.py scales
the timings, and ``cal_before_s`` and ``cal_after_s`` the means of each
end alone, which show whether the program's heap state moves the kernel.  The mean, not the
median, because it gave the steadier scaled figures (README.md).
"""

import gc
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nabch.cli  # noqa: E402

nabch.cli.build_parser()
READY = time.monotonic()


PROBE_PERIOD_S = 0.25
QUERY_CHUNKS = 32  # calibration rounds along a coefficient sweep


def calibrate(rounds: int = 5, size: int = 4000) -> list[float]:
    """Seconds per 1000 steps of a fixed pure-Python kernel (Fraction
    arithmetic and dict updates, the program's staple), ``rounds`` times.
    run.py divides the sample's timings by them, which cancels the speed the
    shared host happens to give this core.  The garbage collector is off
    while the kernel runs, so that the size of the program's heap, which
    sets the cost of a collection, does not move the divisor."""
    from fractions import Fraction

    out = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            acc = Fraction(0)
            table: dict = {}
            for i in range(1, size + 1):
                acc += Fraction(1, i % 97 + 1)
                key = (i % 500, i % 7)
                table[key] = table.get(key, 0) + i
            out.append((time.perf_counter() - t0) * 1000 / size)
    finally:
        if collecting:
            gc.enable()
    return out


class Probes:
    """Calibration along a long operation: a short :func:`calibrate` round
    at each call of :meth:`round`, and, inside ``with``, from SIGALRM every
    PROBE_PERIOD_S.  ``spent`` is the time the rounds took, which the caller
    takes off its timings.  Under tracing each round is also noted on the
    span recorder, which takes it off the self time of the span it
    interrupted."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.rates: list[float] = []
        self.spent = 0.0

    def round(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.rates += calibrate(1, 1000)
        t1 = time.perf_counter()
        self.spent += t1 - t0
        if self.recorder is not None:
            self.recorder.gap(t0, t1)

    def __enter__(self):
        import signal

        signal.signal(signal.SIGALRM, self.round)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_command(argv, probes: Probes | None = None):
    import contextlib
    import io
    import resource

    buf = io.StringIO()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), probes or contextlib.nullcontext():
        try:
            rc = nabch.cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    spent = probes.spent if probes else 0.0
    return {
        "rc": rc,
        "stdout": buf.getvalue(),
        "wall_s": t1 - t0 - spent,
        "cpu_s": _cpu(r1) - _cpu(r0) - spent,
        "peak_rss_mb": r1.ru_maxrss / 1024,
        "latencies_s": [t1 - t0 - spent],
        "probe_rates": probes.rates if probes else [],
    }


def run_queries(monomials, probes: Probes | None = None):
    """The queries, one ``coefficient_via_cuts`` call each.  With ``probes``,
    a calibration round runs after every QUERY_CHUNKS-th part of them,
    between queries, so that no round lands inside a query's latency; the
    rounds' time is taken off wall and CPU time."""
    import resource

    from nabch import cuts

    coefficient = cuts.coefficient_via_cuts  # looked up after tracing is installed
    values = []
    latencies = []
    clock = time.perf_counter
    n = len(monomials)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = clock()
    for k in range(QUERY_CHUNKS):
        for m in monomials[k * n // QUERY_CHUNKS : (k + 1) * n // QUERY_CHUNKS]:
            q0 = clock()
            values.append(coefficient(m))
            latencies.append(clock() - q0)
        if probes:
            probes.round()
    t1 = clock()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    spent = probes.spent if probes else 0.0
    return {
        "rc": 0,
        "answers": [str(v) for v in values],
        "wall_s": t1 - t0 - spent,
        "cpu_s": _cpu(r1) - _cpu(r0) - spent,
        "peak_rss_mb": r1.ru_maxrss / 1024,
        "latencies_s": latencies,
        "probe_rates": probes.rates if probes else [],
    }


def prepare(req):
    """The operation to time, with its inputs made ready outside the timing
    and outside any tracing.  It takes the probes to calibrate with along
    its length, or None."""
    if "argv" in req:
        return lambda probes: run_command(req["argv"], probes)
    from nabch.magma import parse

    monomials = [parse(t) for t in req["monomials"]]
    return lambda probes: run_queries(monomials, probes)


def fraction_constructions(profile) -> int:
    import pstats

    return sum(
        stat[1]
        for (path, _, func), stat in pstats.Stats(profile).stats.items()
        if func == "__new__" and path.endswith("fractions.py")
    )


def main() -> None:
    import json

    req = json.load(sys.stdin)
    mode = req["mode"]
    run = None if mode == "setup" else prepare(req)
    before = calibrate()
    if mode == "setup":
        out = {}
    elif mode == "plain":
        out = run(Probes())
    elif mode == "spans":
        import spans

        rec = spans.install(nabch)
        try:
            out = run(Probes(rec))
        finally:
            rec.uninstall()
        out["layers"] = rec.layers()
        out_dir = os.path.join(ROOT, "bench", ".out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"spans-{req['workload']}.bin"))
    elif mode == "profile":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
        try:
            out = run(None)  # a round's Fraction arithmetic would be counted
        finally:
            profile.disable()
        out["fraction_new"] = fraction_constructions(profile)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    after = calibrate()
    out["cal_before_s"] = statistics.mean(before)
    out["cal_after_s"] = statistics.mean(after)
    out["cal_s"] = statistics.mean(before + after + out.pop("probe_rates", []))
    out["ready"] = READY
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

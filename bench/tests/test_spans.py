"""Tracing rebinds every reference, records nested spans and undoes itself."""

import contextlib
import io
import os
import shutil
import subprocess
import sys

import nabch
import spans
from nabch import checks, cli, cuts, magma, magnus, series


def test_install_rebinds_and_uninstall_restores():
    originals = (magma.node, series.node, cli.coefficient_via_cuts, checks.SUITES["hopf"])
    rec = spans.install(nabch)
    try:
        assert series.node is magma.node is not originals[0]
        assert cli.coefficient_via_cuts is cuts.coefficient_via_cuts is not originals[2]
        assert checks.SUITES["hopf"] is checks.check_hopf is not originals[3]
    finally:
        rec.uninstall()
    assert (magma.node, series.node, cli.coefficient_via_cuts, checks.SUITES["hopf"]) == originals


def test_gaps_count_toward_no_span():
    import time

    rec = spans.Recorder()

    def pause(noted_on=None):
        t0 = time.perf_counter()
        time.sleep(0.05)
        if noted_on is None:
            rec.gap(t0, time.perf_counter())
        else:  # as if the signal came while span ``noted_on`` was closing
            rec.gaps.append((noted_on, t0, time.perf_counter()))

    inner = rec.wrap(pause, "inner")

    def body():
        inner()
        pause(noted_on=1)

    rec.wrap(body, "outer")()
    rows = rec.aggregate()
    assert rows["inner"]["self_s"] < 0.01 and rows["outer"]["self_s"] < 0.01
    assert rows["inner"]["wall_s"] < 0.01 and rows["outer"]["wall_s"] < 0.01


def test_layers_of_a_small_expansion(tmp_path):
    magnus.bch_monomial.cache_clear()
    magnus.bch_ode.cache_clear()
    rec = spans.install(nabch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["expand", "--basis", "both", "--degree", "4", "--format", "json"]) == 0
        cuts.coefficient_via_cuts(magma.parse("((xx)(yy))"))
    finally:
        rec.uninstall()
    layers = rec.layers()
    for metric in ("series.add.calls", "suops.eval_prim.calls", "suops.primcombo.calls", "magnus.n_coeff.calls"):
        assert layers[metric] > 0
    assert layers["magnus.bch_ode.self_s"] > 0 and layers["cli.render.self_s"] > 0
    assert layers["dsw.gamma.calls"] == 0
    enumerated, kept = layers["cuts.cuts_enumerated"], layers["cuts.bch_cuts_kept"]
    assert enumerated == len(cuts.enumerate_cuts(magma.parse("((xx)(yy))")))
    assert 0 < kept <= enumerated
    per_name = rec.aggregate()
    for row in per_name.values():
        assert row["self_s"] <= row["wall_s"] + 1e-9

    path = tmp_path / "spans.bin"
    rec.write(str(path))
    header, arrays = spans.read_spans(str(path))
    assert header["count"] == len(arrays["start"]) == len(rec.start)
    assert list(arrays["parent"]) == list(rec.parent)


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = os.path.dirname(os.path.abspath(spans.__file__))
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    shutil.copy(os.path.join(os.path.dirname(bench), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expand-both", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

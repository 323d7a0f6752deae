"""Every script in demos/ runs to completion from a source checkout."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
SCRIPTS = sorted(name for name in os.listdir(DEMOS) if name.endswith(".py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if script == "cut_coefficients.py":
        assert "series agrees: True" in proc.stdout
        assert not any("series agrees: False" in line for line in proc.stdout.splitlines())

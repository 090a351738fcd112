"""Smoke tests: the scripts under scripts/ run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("bench_big_exponent.py", ["--order", "16"]),
        ("run_sweep.py", ["--order-max", "2"]),
    ],
)
def test_script_exits_zero(script, args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr

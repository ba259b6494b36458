"""The scripts under scripts/ run end to end on tiny arguments."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args, header", [
    ("homset_census.py", ["--max-homset", "64", "--max-n", "4"],
     ["name", "n", "flags", "|Q|", "cyclic", "central", "dualizing"]),
    ("cd_rate.py", ["--samples", "5", "--sizes", "3,4"],
     ["bits", "samples", "cd", "rate", "smooth", "min", "n", "mean", "n",
      "max", "n"]),
])
def test_script_runs(script, args, header):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].split() == header

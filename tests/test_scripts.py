"""The scripts under scripts/ run end to end on tiny arguments."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("script, args, header", [
    ("homset_census.py", ["--max-homset", "64", "--max-n", "4"],
     ["name", "n", "flags", "|Q|", "cyclic", "central", "dualizing"]),
    ("cd_rate.py", ["--samples", "5", "--sizes", "3,4"],
     ["bits", "samples", "cd", "rate", "smooth", "min", "n", "mean", "n",
      "max", "n"]),
])
def test_script_runs(script, args, header):
    assert _run(script, *args).splitlines()[0].split() == header


def test_census_shows_a_homset_above_max_homset_without_classes():
    # c3's homset has 6 members: above --max-homset 5, within the cap
    out = _run("homset_census.py", "--max-homset", "5", "--max-n", "3")
    c3 = [row.split() for row in out.splitlines() if row.startswith("c3 ")]
    assert [row[3:] for row in c3] == [["6"]]
    assert "(> cap)" not in out

#!/usr/bin/env python3
"""Run the mutant catalogue: is each planted bug caught by its tests?

`scripts/mutants.json` lists mutants of `src/latq`.  Each entry names a
file, an exact old text that occurs once in `src/`, the new text that
replaces it, and the tests expected to catch it.  For each mutant the
script copies `src/`, `tests/` and `perfbench/` to a temporary
directory, makes that one replacement there, and runs the named tests
on the copy; the mutant is caught when some of them fail.  It prints one
line per mutant and exits 1 when any survives.

    python3 scripts/mutants.py

A tier-1 test (`tests/test_source.py`) checks that every old text still
occurs exactly once and that every named test exists, so the catalogue
cannot rot silently; this script runs every test it names, about
40 s in all, outside tier-1, as a CI step of its own.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run(root: Path, mutant: dict) -> tuple[str, float]:
    """"caught" or "survived", and the seconds its tests took."""
    with tempfile.TemporaryDirectory(prefix="latq-mutant-") as tmp:
        copy = Path(tmp)
        for top in ("src", "tests", "perfbench"):
            shutil.copytree(root / top, copy / top,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", copy)
        path = copy / mutant["file"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            raise SystemExit(f"{mutant['name']}: the old text does not "
                             f"occur once in {mutant['file']}")
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *mutant["tests"]],
            cwd=copy, env=env, capture_output=True, text=True)
        took = time.perf_counter() - t0
    # pytest exits 0 when every test passed, 4 or 5 when a test id names
    # nothing, and 1 to 3 when a test failed or the mutant broke a
    # collection or a fixture: a catch
    if out.returncode in (4, 5):
        raise SystemExit(f"{mutant['name']}: pytest exited "
                         f"{out.returncode}\n{out.stdout}{out.stderr}")
    return ("survived" if out.returncode == 0 else "caught"), took


def main() -> None:
    root = Path(__file__).resolve().parents[1]
    catalogue = json.loads((root / "scripts" / "mutants.json").read_text())
    survivors = []
    for mutant in catalogue:
        status, took = run(root, mutant)
        print(f"{mutant['name']:<44} {status:<9} {took:6.1f} s", flush=True)
        if status == "survived":
            survivors.append(mutant["name"])
    print(f"{len(survivors)} survived" + (
        f": {', '.join(survivors)}" if survivors else ""))
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()

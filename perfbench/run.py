#!/usr/bin/env python3
"""latq's benchmark: one workload, measured cold, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `latq` is imported from its `src/`.
`--workload all` runs the three workloads in turn.  README.md describes
the workloads and the metrics.

Every measurement is a fresh interpreter running child.py.  Workload
processes start one after another until the next one would end past
`--seconds` (there is always one), and set-up is measured in at least
SETUP_SAMPLES processes.  `--trace 0` reports the end-to-end metrics as
medians over these processes; `--trace 1` adds one traced process and one
that replays its axiom sweeps to measure their memory peak, and reports
the per-layer metrics.  The last line of output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
MAX_PROCESSES = 16
# A workload process runs its workload once, so its time does not depend
# on --seconds; this only stops a process that hangs.
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "cells_run")


def check_ids() -> list[str]:
    return workloads.load_ref("verify_builtin.json")["checks"]


def unit_of(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_cell"):
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_over_kept"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = list(spans.summarize([], [], check_ids()))
    names += [f"suite.skips.{c}" for c in workloads.SKIP_CLASSES]
    names.append("trace.overhead_s")
    return names


class Failed(Exception):
    """A workload process ended without a result."""


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(ROOT, ".perfbench_work",
                                 f"{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.update(dict.fromkeys(THREAD_VARS, "1"))
        self.count = 0

    def child(self, *extra: str) -> dict:
        """Start one workload process, wait for it, return its result."""
        self.count += 1
        workdir = os.path.join(self.work, str(self.count))
        os.makedirs(workdir)
        out = os.path.join(workdir, "result.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--out", out, "--workdir", workdir, *extra]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv + ["--spawned-at", repr(start)],
                                  env=self.env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as e:
            raise Failed(f"workload process ran past {CHILD_TIMEOUT_S:.0f} s"
                         ) from e
        if proc.stdout:
            sys.stderr.write(proc.stdout)
        if proc.returncode != 0 or not os.path.exists(out):
            raise Failed(f"workload process exited {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        src = os.path.realpath(os.path.join(ROOT, "src", "latq"))
        if os.path.realpath(result["latq"]) != src:
            raise Failed(f"latq imported from {result['latq']}, not {src}")
        result["duration"] = time.perf_counter() - start
        return result


def environment() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "latq")
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), "rb") as fh:
                digest.update(fn.encode() + b"\0" + fh.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(workload, seed)
    try:
        runner.child("--setup-only")  # compiles bytecode; not measured
        runs = []
        start = time.perf_counter()
        while len(runs) < MAX_PROCESSES:
            runs.append(runner.child())
            elapsed = time.perf_counter() - start
            if elapsed + runs[-1]["duration"] > seconds:
                break
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.child("--setup-only")["setup_s"])
        traced = []
        if trace:
            spanned = runner.child("--trace", "1")
            peaked = runner.child("--peak", spanned["spans_file"])
            for r in (spanned, peaked):
                with open(r["spans_file"], encoding="utf-8") as fh:
                    r["spans"] = json.load(fh)
            traced = [spanned]
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    done = runs + traced
    attempted = sum(r["ops_total"] for r in done)
    failed = sum(r["ops_failed"] for r in done)
    digests = {r["verdict_sha256"] for r in done}
    if len(digests) != 1:
        failed += 1
        print(f"# verdict output differs between processes: {sorted(digests)}")
    for r in done:
        for msg in r["failures"]:
            print(f"# FAILED: {msg}")
    env = dict(environment(), python=runs[0]["python"], numpy=runs[0]["numpy"])
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {workload} seed {seed}: {len(runs)} workload processes, "
          f"{len(setups)} set-ups"
          + (", 1 traced, 1 memory peak" if traced else ""))
    print("# wall_s per workload process: "
          + " ".join(f"{r['wall_s']:.3f}" for r in runs))

    if traced:
        values = spans.summarize(spanned["spans"], peaked["spans"],
                                 check_ids())
        for c in workloads.SKIP_CLASSES:
            values[f"suite.skips.{c}"] = spanned.get("skips", {}).get(c, 0)
        values["trace.overhead_s"] = (
            spanned["wall_s"] - statistics.median(r["wall_s"] for r in runs))
        names = per_layer_names()
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "cells_run": statistics.median_low(r["cells_run"] for r in runs),
        }
        names = END_TO_END
    metrics = {n: {"value": values[n], "unit": unit_of(n)} for n in names}
    for n in names:
        print(f"{n} = {values[n]:.6g} {unit_of(n)}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": min(failed, attempted), "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"),
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and waits for the
    # workload process before this one ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "latq", "__init__.py")):
        print(f"error: no latq sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
    except Failed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:  # metrics keyed by workload, counts summed
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

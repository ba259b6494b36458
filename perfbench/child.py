#!/usr/bin/env python3
"""One cold workload process: set up, run once, check, write a result file.

    python3 perfbench/child.py --workload NAME --seed N --out RESULT.json
        --workdir DIR --spawned-at T [--trace 0|1] [--peak SPANS]
        [--setup-only] [--small] [--ref FILE]

run.py starts this script in a fresh interpreter for every measurement,
so no cache of `latq` survives from one measurement to the next.
`--spawned-at` is the parent's `time.perf_counter()` just before the
process started; on Linux that clock is system-wide, so set-up time runs
from process start until the inputs are ready.  `--small` selects the
tiny inputs of the benchmark's own tests, and `--ref` replaces the
reference file the outputs are checked against.  `--trace 1` records
layer spans.  `--peak SPANS` does not run the workload: it replays the
axiom sweeps recorded in the span file SPANS of a traced process, on the
same carriers, and records their tracemalloc peaks; tracemalloc would
slow the traced spans, and the rest of the workload does not change a
sweep's peak.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import spans
import workloads


def _setup_verify(latq, args) -> dict:
    ref = workloads.load_ref(args.ref or f"{args.workload}.json")
    argv = ["verify", "--json", "--seed", str(args.seed)]
    corpus = ref["corpus"]
    corpus_dir = os.path.join(args.workdir, "corpus")
    only = workloads.SMALL_CARRIERS[args.workload] if args.small else None
    if args.workload == "verify_large":
        corpus = workloads.write_corpus(workloads.large_corpus(latq),
                                        corpus_dir, only)
        argv += ["--corpus", corpus_dir]
    elif only:
        corpus = workloads.write_corpus(latq.builtin_corpus(), corpus_dir, only)
        argv += ["--corpus", corpus_dir]
    return {"ref": ref, "argv": argv, "corpus": corpus}


def _run_verify(latq, args, inputs) -> dict:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = latq.cli.main(inputs["argv"])
    except Exception as e:  # the CLI maps errors to exit codes; count any escape
        print(f"verify raised {e!r}", file=sys.stderr)
        rc = -1
    text = buf.getvalue()
    out = workloads.check_verdict(text, rc, args.seed, inputs["ref"],
                                  inputs["corpus"])
    out["verdict"] = text
    return out


def _setup_pairs(latq, args) -> dict:
    table = workloads.load_ref(args.ref or "pairs.json")
    rows = workloads.choose_pairs(table, small=args.small)
    used = {r["dom"] for r in rows} | {r["cod"] for r in rows}
    carriers = workloads.relabel(
        latq, [L for L in latq.builtin_corpus() if L.name in used], args.seed)
    return {"pairs": [(carriers[r["dom"]], carriers[r["cod"]], r) for r in rows]}


def _run_pairs(latq, args, inputs) -> dict:
    out = {"ops_total": 0, "ops_failed": 0, "cells_run": 0, "failures": []}
    lines = []

    def fail(msg: str) -> None:
        out["ops_failed"] += 1
        if len(out["failures"]) < 10:
            out["failures"].append(msg)

    for L, M, row in inputs["pairs"]:
        tag = f"{row['dom']}->{row['cod']}"
        out["ops_total"] += 1
        try:
            count = len(latq.enumerate_homset(L, M))
        except Exception as e:  # CapExceeded and any other error count as failed
            fail(f"{tag}: enumerate raised {e!r}")
            lines.append(f"{tag} enumerate {type(e).__name__}")
        else:
            out["cells_run"] += 1
            lines.append(f"{tag} count {count}")
            if count != row["count"]:
                fail(f"{tag}: |Q| = {count}, reference {row['count']}")
        if not workloads.in_band(row):
            continue
        out["ops_total"] += 1
        try:
            holds = latq.check_involutive_axioms(L, M).holds
        except Exception as e:
            fail(f"{tag}: axioms raised {e!r}")
            lines.append(f"{tag} axioms {type(e).__name__}")
        else:
            out["cells_run"] += 1
            lines.append(f"{tag} axioms {holds}")
            if holds != row["axioms"]:
                fail(f"{tag}: axioms {holds}, reference {row['axioms']}")
    out["verdict"] = "\n".join(lines) + "\n"
    return out


def _replay_axioms(latq, args, inputs, rec) -> None:
    """Repeat the axiom sweeps a traced process recorded, in its order."""
    with open(args.peak, encoding="utf-8") as fh:
        calls = [s[4] for s in json.load(fh)
                 if s[0] == spans.AXIOMS and s[4] and "dom" in s[4]]
    if not calls:
        return
    if args.workload == "quantaloid_pairs":
        carriers = {L.name: L for pair in inputs["pairs"] for L in pair[:2]}
    elif args.workload == "verify_large":
        carriers = {L.name: L for L in workloads.large_corpus(latq)}
    else:
        carriers = {L.name: L for L in latq.builtin_corpus()}
    spans.install_peak(rec)
    root = rec.open(spans.ROOT)
    for c in calls:
        cap = {} if c["cap"] is None else {"cap": c["cap"]}
        latq.check_involutive_axioms(carriers[c["dom"]], carriers[c["cod"]],
                                     **cap)
    rec.close(root)


SETUP = {"verify_builtin": _setup_verify, "verify_large": _setup_verify,
         "quantaloid_pairs": _setup_pairs}
RUN = {"verify_builtin": _run_verify, "verify_large": _run_verify,
       "quantaloid_pairs": _run_pairs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--peak", metavar="SPANS")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--ref")
    args = ap.parse_args()
    if args.trace and args.peak:
        ap.error("--peak runs in a process of its own, without --trace")

    import numpy
    import latq
    import latq.cli

    inputs = SETUP[args.workload](latq, args)
    ready = time.perf_counter()
    result = {"setup_s": ready - args.spawned_at,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "latq": os.path.dirname(latq.__file__)}
    rec = spans.Recorder() if args.trace or args.peak else None
    if args.peak:
        _replay_axioms(latq, args, inputs, rec)
    elif not args.setup_only:
        if rec:
            spans.install(rec)
        t0 = time.perf_counter()
        root = rec.open(spans.ROOT) if rec else -1
        outcome = RUN[args.workload](latq, args, inputs)
        if rec:
            rec.close(root)
        result["wall_s"] = time.perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = rss_kb / 1024.0
        verdict = outcome.pop("verdict")
        result["verdict_sha256"] = hashlib.sha256(verdict.encode()).hexdigest()
        result.update(outcome)
    if rec:
        result["spans_file"] = args.out + ".spans.json"
        with open(result["spans_file"], "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh, separators=(",", ":"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

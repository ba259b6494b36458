#!/usr/bin/env python3
"""Rebuild the benchmark's committed reference outputs in refs/.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes, from the root of a checkout:

- refs/verify_builtin.json: `latq verify --json --seed 0` on the built-in
  corpus, without its `seed` field;
- refs/verify_large.json: the same over the verify_large carriers;
- refs/pairs.json: the quantaloid_pairs universe.  It holds every ordered
  pair (L, M) of distinct built-in carriers with M.n ** |J(L)| <= 2**14,
  with |Q(L, M)| and, for pairs in the axiom band, the verdict of the
  involutive-axiom sweep.  Homset counts on pairs with L.n <= 4 are
  cross-checked against the plain-loop oracle in tests/oracles.py.

The references are produced by the program they check, so rebuild them
only at a commit whose verdicts are known good, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import latq  # noqa: E402
import latq.cli  # noqa: E402

import workloads  # noqa: E402

UNIVERSE_ESTIMATE = 1 << 14
ORACLE_MAX_N = 4


def _verify_doc(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = latq.cli.main(["verify", "--json", "--seed", "0", *argv])
    if rc != 0:
        raise SystemExit(f"verify {argv} exited {rc}; refusing to record it")
    doc = json.loads(buf.getvalue())
    del doc["seed"]
    return doc


def _write(name: str, obj) -> None:
    with open(workloads.ref_path(name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote refs/{name}", flush=True)


def build_verify_builtin() -> None:
    _write("verify_builtin.json", _verify_doc([]))


def build_verify_large() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workloads.write_corpus(workloads.large_corpus(latq), tmp)
        _write("verify_large.json", _verify_doc(["--corpus", tmp]))


def build_pairs() -> None:
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles

    corpus = latq.builtin_corpus()
    rows = []
    checked = 0
    t0 = time.perf_counter()
    for L in corpus:
        for M in corpus:
            if L.name == M.name:
                continue
            estimate = M.n ** len(L.join_irreducibles)
            if estimate > UNIVERSE_ESTIMATE:
                continue
            Q = latq.enumerate_homset(L, M)
            if L.n <= ORACLE_MAX_N:
                want = sorted(oracles.jc_maps(L, M))
                got = sorted(tuple(r) for r in Q.matrix.tolist())
                if got != want:
                    raise SystemExit(f"homset {L.name}->{M.name} disagrees "
                                     "with the oracle")
                checked += 1
            row = {"dom": L.name, "cod": M.name, "estimate": estimate,
                   "count": len(Q), "axioms": None}
            if workloads.in_band(row):
                row["axioms"] = latq.check_involutive_axioms(L, M).holds
            rows.append(row)
    band = [r for r in rows if r["axioms"] is not None]
    print(f"{len(rows)} pairs, {len(band)} in the axiom band, "
          f"{sum(r['axioms'] for r in band)} hold; {checked} pairs matched "
          f"the oracle; {time.perf_counter() - t0:.1f} s", flush=True)
    _write("pairs.json", rows)


def main() -> None:
    os.makedirs(workloads.REFS, exist_ok=True)
    build_pairs()
    build_verify_builtin()
    build_verify_large()


if __name__ == "__main__":
    main()

"""Inputs of the three workloads and the checks of their outputs.

Inputs depend only on the workload seed and on the committed reference
files in `refs/`, never on a size estimate made by the program under
test, so a change to the program cannot change the work it is given.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

WORKLOADS = ("verify_builtin", "verify_large", "quantaloid_pairs")

# Carriers and pairs of the small variant the benchmark's own tests run.
SMALL_CARRIERS = {
    "verify_builtin": ("c1", "c2", "c3", "b2", "m3", "n5"),
    "verify_large": ("c12xc12", "r0_10", "r1_10"),
}
SMALL_PAIRS = 3

# quantaloid_pairs: every chosen pair is enumerated; pairs whose homset
# size lies in AXIOM_BAND also get the involutive-axiom sweep.  The pairs
# are a fixed stratified sample of the universe in a fixed order, so the
# work is the same for every seed; the seed relabels every carrier.
AXIOM_BAND = (64, 512)
ENUM_SAMPLE = 400
AXIOM_SAMPLE = 30


def ref_path(name: str) -> str:
    return os.path.join(REFS, name)


def load_ref(name: str):
    with open(ref_path(name), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------- verify_large

def large_corpus(latq) -> list:
    """Large carriers for verify_large, CD and non-CD, in a fixed order.

    Products of chains and the Boolean lattice on 8 atoms are completely
    distributive; the random closure systems are not.  Every homset gate
    refuses these carriers by estimate.
    """
    g = latq.GeneratorSpec
    out = [
        latq.generate(g("product", a=20, b=20)),
        latq.generate(g("product", a=16, b=16)),
        latq.generate(g("product", a=12, b=12)),
        latq.downset_lattice(latq.Poset(np.eye(8, dtype=bool)), name="b8"),
    ]
    for gens in (10, 11, 12):
        for seed in range(4):
            out.append(latq.generate(g("random", seed=seed, n=gens)))
    return out


def write_corpus(carriers, directory: str, only=None) -> list[str]:
    """Write carriers (those named in `only`, if given) as lattice files.

    Returns the written names in the order `latq verify --corpus` reads
    them.
    """
    import latq

    os.makedirs(directory, exist_ok=True)
    names = []
    for L in carriers:
        if only is None or L.name in only:
            latq.save_lattice(L, os.path.join(directory, f"{L.name}.json"))
            names.append(L.name)
    return sorted(names)


# ------------------------------------------------------- verify workloads

SKIP_CLASSES = ("hypothesis", "size_cap", "homset_gate", "unexpected")


def skip_class(cell: dict) -> str:
    """Sort one skipped cell into a class by its reason string."""
    if not cell.get("expected", True):
        return "unexpected"
    reason = cell.get("reason") or ""
    if reason.startswith("needs"):
        return "hypothesis"
    if reason.startswith("carrier too large"):
        return "size_cap"
    if reason.startswith("homset"):
        return "homset_gate"
    return "unexpected"


def _summary(cells: list[dict]) -> dict:
    counts = {"cells": 0, "pass": 0, "fail": 0, "skip": 0,
              "unexpected_skip": 0, "vacuous_pass": 0}
    for cell in cells:
        counts["cells"] += 1
        counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        if cell["status"] == "skip" and not cell.get("expected", True):
            counts["unexpected_skip"] += 1
        if cell["status"] == "pass" and cell.get("substantive") is False:
            counts["vacuous_pass"] += 1
    return counts


def check_verdict(text: str, rc: int, seed: int, ref: dict,
                  corpus: list[str]) -> dict:
    """Compare a `latq verify --json` document with the reference.

    One operation per cell.  A cell fails when it fails, skips
    unexpectedly, or differs from the reference cell of the same check
    and carrier.  Header fields that disagree with the reference, or a
    summary that disagrees with the document's own cells, count as one
    more failure; so does a nonzero exit code that no cell explains.
    Checking goes on past the first failure.
    """
    ops = len(ref["checks"]) * len(corpus)
    out = {"ops_total": ops, "ops_failed": 0, "cells_run": 0,
           "skips": dict.fromkeys(SKIP_CLASSES, 0), "failures": []}

    def fail(msg: str) -> None:
        out["ops_failed"] += 1
        if len(out["failures"]) < 10:
            out["failures"].append(msg)

    try:
        doc = json.loads(text)
    except ValueError:
        fail(f"output is not JSON (exit code {rc})")
        out["ops_failed"] = ops
        return out
    got_cells = []
    for check in ref["checks"]:
        row = doc.get("results", {}).get(check, {})
        for name in corpus:
            want = ref["results"].get(check, {}).get(name)
            cell = row.get(name)
            if cell is None:
                fail(f"{check} on {name}: no cell")
                continue
            got_cells.append(cell)
            if cell["status"] == "skip":
                out["skips"][skip_class(cell)] += 1
            else:
                out["cells_run"] += 1
            if cell != want:
                fail(f"{check} on {name}: {cell} differs from reference {want}")
            elif cell["status"] == "fail":
                fail(f"{check} on {name}: fails")
            elif cell["status"] == "skip" and not cell.get("expected", True):
                fail(f"{check} on {name}: unexpected skip")
    header = {"corpus": corpus, "checks": ref["checks"],
              "summary": _summary(got_cells), "seed": seed,
              "version": ref["version"]}
    bad = sorted(k for k, v in header.items() if doc.get(k) != v)
    bad += sorted(set(doc) - set(header) - {"results"})
    if bad:
        fail(f"document fields differ from reference: {bad}")
    if rc != 0 and out["ops_failed"] == 0:
        fail(f"exit code {rc}")
    out["ops_failed"] = min(out["ops_failed"], ops)
    return out


# ------------------------------------------------------ quantaloid_pairs

def _stratified(rows: list[dict], key, count: int) -> list[dict]:
    """The middle row of each of `count` equal strata of rows sorted by key."""
    if count >= len(rows):
        return list(rows)
    rows = sorted(rows, key=key)
    edges = [round(i * len(rows) / count) for i in range(count + 1)]
    return [rows[(lo + hi) // 2] for lo, hi in zip(edges, edges[1:])]


def choose_pairs(table: list[dict], small: bool = False) -> list[dict]:
    """The pairs of the workload, the same for every seed.

    Pairs outside the axiom band are stratified by the enumeration
    candidate count; pairs inside it by the axiom verdict, since a
    failing sweep stops early, and then by homset size.  An axiom sweep
    costs up to a thousand times another, so a seeded draw from the
    strata would make the work depend on the seed; the set is fixed, and
    so is its order, since the peak memory depends on it.  The seed only
    names the inputs: see `relabel`.
    """
    band = [r for r in table if in_band(r)]
    rest = [r for r in table if not in_band(r)]
    if small:
        rows = sorted(table, key=lambda r: r["estimate"])[:SMALL_PAIRS - 1]
        rows += sorted(band, key=lambda r: r["count"])[:1]
    else:
        rows = _stratified(rest, lambda r: (r["estimate"], r["dom"], r["cod"]),
                           ENUM_SAMPLE)
        rows += _stratified(
            band, lambda r: (r["axioms"], r["count"], r["dom"], r["cod"]),
            AXIOM_SAMPLE)
    return rows


def relabel(latq, carriers: list, seed: int) -> dict:
    """Each carrier under a seeded permutation of its elements, by name.

    Homset sizes and axiom verdicts do not depend on the labels, so the
    reference still holds, and the work is the same up to isomorphism.
    """
    rng = random.Random(f"quantaloid_pairs:{seed}")
    out = {}
    for L in carriers:
        perm = list(range(L.n))
        rng.shuffle(perm)
        leq = L.leq[np.ix_(perm, perm)]
        out[L.name] = latq.build_lattice(latq.Poset(leq), name=L.name)
    return out


def in_band(row: dict) -> bool:
    lo, hi = AXIOM_BAND
    return lo <= row["count"] <= hi

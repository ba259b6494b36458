"""The benchmark's own tests, on small inputs.

    python3 -m pytest perfbench -q

They run child.py with `--small` (a few carriers per verify workload and
three pairs), so they take seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def child(tmp_path, workload: str, trace: int = 0,
          ref: str | None = None, peak: str | None = None) -> dict:
    workdir = tmp_path / f"{workload}-{trace}-{int(bool(peak))}"
    workdir.mkdir()
    out = workdir / "result.json"
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--seed", "3", "--out", str(out),
            "--workdir", str(workdir), "--trace", str(trace), "--small",
            "--spawned-at", repr(time.perf_counter())]
    if ref:
        argv += ["--ref", ref]
    if peak:
        argv += ["--peak", peak]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=120)
    result = json.loads(out.read_text())
    if trace or peak:
        with open(result["spans_file"], encoding="utf-8") as fh:
            result["spans"] = json.load(fh)
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_verdicts_are_byte_identical(tmp_path, workload):
    plain = child(tmp_path, workload, trace=0)
    traced = child(tmp_path, workload, trace=1)
    assert plain["ops_failed"] == traced["ops_failed"] == 0, plain["failures"]
    assert plain["ops_total"] == traced["ops_total"] > 0
    assert plain["verdict_sha256"] == traced["verdict_sha256"]


@pytest.mark.parametrize("workload", ["verify_builtin", "quantaloid_pairs"])
def test_self_times_are_nonnegative_and_add_up_to_the_root(tmp_path, workload):
    got = child(tmp_path, workload, trace=1)["spans"]
    roots = [s for s in got if s[3] < 0]
    assert [s[0] for s in roots] == [spans.ROOT]
    selfs = spans.self_times(got)
    assert min(selfs) >= -1e-9
    root_s = roots[0][2] - roots[0][1]
    assert sum(selfs) == pytest.approx(root_s, rel=1e-9, abs=1e-9)
    layers = spans.summarize(got, [], run.check_ids())
    total = sum(layers[f"{k}.self_ms"] for k in ("bench", *spans.LAYERS))
    assert total == pytest.approx(layers["trace.wall_ms"], rel=1e-9)


def test_layer_names_include_the_imported_bindings(tmp_path):
    got = child(tmp_path, "quantaloid_pairs", trace=1)["spans"]
    names = {s[0] for s in got}
    # check_involutive_axioms calls the kernels through the names quantale
    # imported from maps; those calls must be seen.
    assert "maps._batch_right_adjoint" in names
    assert "quantale.check_involutive_axioms" in names
    assert "quantale.enumerate_homset" in names


def test_memory_peak_is_taken_apart_from_the_timed_spans(tmp_path):
    traced = child(tmp_path, "quantaloid_pairs", trace=1)
    timed = traced["spans"]
    assert not any(s[4] and "peak" in s[4] for s in timed)
    peaked = child(tmp_path, "quantaloid_pairs",
                   peak=traced["spans_file"])["spans"]
    assert {s[0] for s in peaked} == {spans.ROOT, spans.AXIOMS}
    layers = spans.summarize(timed, peaked, run.check_ids())
    assert layers["quantale.axioms_peak_mb"] > 0
    assert layers["quantale.axioms_calls"] == 1
    assert [s[4]["homset"] for s in peaked if s[0] == spans.AXIOMS] == \
        [s[4]["homset"] for s in timed if s[0] == spans.AXIOMS]


def _corrupt(tmp_path, name: str, edit) -> str:
    doc = copy.deepcopy(workloads.load_ref(name))
    edit(doc)
    path = tmp_path / f"corrupt-{name}"
    path.write_text(json.dumps(doc))
    return str(path)


def test_corrupted_verify_reference_fails_one_operation(tmp_path):
    def edit(doc):
        doc["results"]["T1"]["m3"] = {"status": "fail"}
    bad = _corrupt(tmp_path, "verify_builtin.json", edit)
    got = child(tmp_path, "verify_builtin", ref=bad)
    assert got["ops_failed"] == 1, got["failures"]


def test_corrupted_pair_reference_fails_one_operation(tmp_path):
    table = workloads.load_ref("pairs.json")
    first = workloads.choose_pairs(table, small=True)[0]

    def edit(rows):
        for r in rows:
            if (r["dom"], r["cod"]) == (first["dom"], first["cod"]):
                r["count"] += 1
    bad = _corrupt(tmp_path, "pairs.json", edit)
    got = child(tmp_path, "quantaloid_pairs", ref=bad)
    assert got["ops_failed"] == 1, got["failures"]


def test_reference_skip_histogram_and_coverage():
    ref = workloads.load_ref("verify_builtin.json")
    text = json.dumps(dict(ref, seed=5))
    got = workloads.check_verdict(text, 0, 5, ref, ref["corpus"])
    assert got["ops_failed"] == 0
    assert got["ops_total"] == 1548
    assert got["cells_run"] == 798
    assert got["skips"] == {"hypothesis": 378, "size_cap": 286,
                            "homset_gate": 86, "unexpected": 0}


def test_check_verdict_counts_every_failure_and_keeps_going():
    ref = workloads.load_ref("verify_builtin.json")
    doc = copy.deepcopy(ref)
    doc["seed"] = 0
    doc["results"]["T1"]["c1"] = {"status": "fail"}
    doc["results"]["T2"]["c2"] = {"status": "skip", "reason": "x",
                                  "expected": False}
    got = workloads.check_verdict(json.dumps(doc), 1, 0, ref, ref["corpus"])
    # two cells, and the summary that no longer counts the document's cells
    assert got["ops_failed"] == 3
    assert got["skips"]["unexpected"] == 1
    doc = dict(ref, seed=0, version="0.0.0")
    assert workloads.check_verdict(json.dumps(doc), 0, 0, ref,
                                   ref["corpus"])["ops_failed"] == 1
    assert workloads.check_verdict("Traceback", 3, 0, ref,
                                   ref["corpus"])["ops_failed"] == 1548


def test_pair_sample_is_fixed_and_sized():
    table = workloads.load_ref("pairs.json")
    a = workloads.choose_pairs(table)
    assert len({(r["dom"], r["cod"]) for r in a}) == len(a)
    band = [r for r in a if workloads.in_band(r)]
    assert len(band) == workloads.AXIOM_SAMPLE
    assert len(a) == workloads.ENUM_SAMPLE + workloads.AXIOM_SAMPLE


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, names in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.per_layer_names())):
        assert [(m["name"], m["unit"]) for m in spec[key]] == \
            [(n, run.unit_of(n)) for n in names]


def test_relabelled_carriers_are_isomorphic_copies(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import latq

    corpus = [L for L in latq.builtin_corpus() if L.name in ("c3", "n5", "b2")]
    a = workloads.relabel(latq, corpus, 1)
    assert a.keys() == {"c3", "n5", "b2"}
    assert any(not (a[L.name].leq == L.leq).all() for L in corpus)
    for L in corpus:
        M = a[L.name]
        assert M.n == L.n and M.is_distributive == L.is_distributive
        assert len(M.join_irreducibles) == len(L.join_irreducibles)
        assert len(latq.enumerate_homset(M, M)) == \
            len(latq.enumerate_homset(L, L))
    again = workloads.relabel(latq, corpus, 1)
    assert all((again[k].leq == a[k].leq).all() for k in a)

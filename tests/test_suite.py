import json
from pathlib import Path

import numpy as np
import pytest

import latq
from latq import docio, maps, quantale, suite
from latq.cd import CheckResult, first_failing_law
from latq.suite import SuiteReport


MINI = ("c1", "c3", "b2", "m3", "n5")


@pytest.fixture(scope="session")
def mini(zoo):
    return [zoo[name] for name in MINI]


@pytest.fixture(scope="session")
def mini_report(mini):
    return latq.run_suite(corpus=mini, seed=0)


def test_registry_ids_frozen():
    assert latq.CHECK_IDS == (
        "T1", "T2", "T3", "T4", "T5", "T6", "T6n", "T7", "T8", "T8n",
        "T9", "T9n", "T10", "T11", "T12", "T12n", "T13", "T14",
    )
    statements = [c.statement for c in latq.REGISTRY]
    assert all(s and s[0].islower() for s in statements)
    assert len(set(statements)) == len(statements)


def test_builtin_corpus_shape():
    corpus = latq.builtin_corpus()
    names = [L.name for L in corpus]
    assert len(names) == 86
    assert len(set(names)) == 86
    assert names[:11] == ["c1", "c2", "c3", "c4", "c5", "c6",
                          "b1", "b2", "b3", "m3", "n5"]
    assert "c2xc3" in names
    assert sum(1 for n in names if n.startswith("d")) == 24
    assert sum(1 for n in names if n.startswith("r")) == 50
    again = latq.builtin_corpus()
    assert [L.name for L in again] == names
    assert all(a == b for a, b in zip(corpus[:12], again[:12]))


def test_mini_corpus_is_green(mini_report):
    assert mini_report.ok
    assert mini_report.summary == {
        "cells": 90, "pass": 67, "fail": 0, "skip": 23,
        "unexpected_skip": 0, "vacuous_pass": 3,
    }


def test_mini_corpus_cell_details(mini_report):
    res = mini_report.results
    cell = res["T6"]["m3"]
    assert cell.status == "skip" and cell.expected
    assert "distributive" in cell.reason
    assert res["T6"]["c3"].status == "pass"
    assert res["T6n"]["m3"].status == "pass"
    assert res["T6n"]["c3"].status == "skip"
    assert res["T4"]["c1"].status == "skip"
    assert "two elements" in res["T4"]["c1"].reason
    # the conditional check is vacuous exactly where its premise fails
    assert res["T5"]["c3"].substantive is True
    assert res["T5"]["b2"].substantive is True
    for name in ("c1", "m3", "n5"):
        assert res["T5"][name].status == "pass"
        assert res["T5"][name].substantive is False
    for check in ("T8n", "T9n", "T12n"):
        assert res[check]["m3"].status == "pass"
        assert res[check]["n5"].status == "pass"
        assert res[check]["b2"].status == "skip"


def test_unknown_check_id_rejected(zoo):
    with pytest.raises(ValueError, match="unknown check ids"):
        latq.run_suite(corpus=[zoo["c2"]], checks=["T1", "T99"])


def test_checks_subset_and_order(zoo):
    report = latq.run_suite(corpus=[zoo["c3"]], checks=["T11", "T1"])
    # registry order wins, not argument order
    assert report.checks == ["T1", "T11"]
    assert report.corpus == ["c3"]
    assert report.summary["cells"] == 2
    assert report.ok


def test_seed_determinism(zoo):
    lats = [zoo["c3"], zoo["m3"]]
    a = latq.run_suite(corpus=lats, checks=["T3", "T10"], seed=7)
    b = latq.run_suite(corpus=lats, checks=["T3", "T10"], seed=7)
    assert a.as_doc() == b.as_doc()
    c = latq.run_suite(corpus=lats, checks=["T10"], seed=8)
    assert c.ok


def test_declared_skip_when_cap_is_tiny(zoo):
    report = latq.run_suite(corpus=[zoo["b3"]], checks=["T7"], cap=100)
    cell = report.results["T7"]["b3"]
    assert cell.status == "skip" and cell.expected
    assert "beyond enumeration cap" in cell.reason
    assert report.ok


def test_cell_as_doc():
    assert CheckResult("T1", True).cell_doc() == {"status": "pass"}
    doc = CheckResult("T1", False, reason="why", expected=False).cell_doc()
    assert doc == {"status": "skip", "reason": "why", "expected": False}
    doc = CheckResult("T1", True, substantive=False,
                      elapsed=0.0125).cell_doc(timing=True)
    assert doc["substantive"] is False
    assert doc["elapsed_ms"] == 12.5


def test_report_doc_shape(mini_report):
    doc = mini_report.as_doc()
    assert set(doc) == {"corpus", "checks", "results", "summary",
                        "seed", "version"}
    assert doc["version"] == "0.1.0"
    assert doc["corpus"] == list(MINI)
    json.dumps(doc)  # serializable
    timed = mini_report.as_doc(timing=True)
    assert "elapsed_ms" in timed["results"]["T1"]["c3"]
    assert "elapsed_ms" not in doc["results"]["T1"]["c3"]


def test_render_text_symbols_and_detail_lines():
    report = SuiteReport(
        corpus=["aa", "bb"],
        checks=["T1", "T5"],
        results={
            "T1": {"aa": CheckResult("T1", True),
                   "bb": CheckResult("T1", False, witness={"x": 1})},
            "T5": {"aa": CheckResult("T5", True, substantive=False),
                   "bb": CheckResult("T5", False, reason="cap hit",
                                     expected=False)},
        },
        seed=0,
    )
    text = report.render_text()
    lines = text.splitlines()
    assert lines[1].startswith("aa") and lines[1].endswith("+    v")
    assert lines[2].startswith("bb") and lines[2].endswith("F    !")
    assert any(line.startswith("legend:") for line in lines)
    assert any(line.startswith("FAIL T1 on bb") for line in lines)
    assert any(line.startswith("UNEXPECTED SKIP T5 on bb") for line in lines)
    assert not report.ok
    assert report.summary["fail"] == 1
    assert report.summary["unexpected_skip"] == 1
    assert report.summary["vacuous_pass"] == 1


def test_render_text_green(mini_report):
    text = mini_report.render_text()
    body = [line for line in text.splitlines()
            if not line.startswith(("legend:", "cells "))]
    assert all("F" not in line and "!" not in line for line in body)
    assert "cells 90: 67 pass (3 vacuous), 0 fail, 23 skip (0 unexpected)" \
        in text


GUARD = ("c1", "c3", "b2", "b3", "m3", "n5", "d3_2", "r03")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
VERIFY_REF = PERFBENCH / "refs" / "verify_builtin.json"


def test_cells_match_committed_verify_reference(corpus):
    # every cell renders to the same bytes as in the reference document
    # of `latq verify --json` on the built-in corpus
    ref = json.loads(VERIFY_REF.read_text())["results"]
    report = latq.run_suite(corpus=[L for L in corpus if L.name in GUARD],
                            seed=0)
    cells = 0
    for check, row in report.results.items():
        for name, cell in row.items():
            assert docio.dumps(cell.cell_doc()) == \
                docio.dumps(ref[check][name]), (check, name)
            cells += 1
    assert cells == 144


def test_sampled_cells_match_committed_verify_reference_at_seed_1(corpus):
    # T8, T9 and T10 draw their samples from the seed; at a seed other
    # than the reference's 0 every cell still renders as in the reference.
    # T3, T5, T6, T6n, T13 and T14 run the pair sweeps over composite codes
    ref = json.loads(VERIFY_REF.read_text())["results"]
    checks = ["T3", "T5", "T6", "T6n", "T8", "T9", "T10", "T13", "T14"]
    report = latq.run_suite(corpus=corpus, checks=checks, seed=1)
    cells = 0
    for check, row in report.results.items():
        for name, cell in row.items():
            assert docio.dumps(cell.cell_doc()) == \
                docio.dumps(ref[check][name]), (check, name)
            cells += cell.status != "skip"
    assert cells > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_large_cells_match_committed_reference(
        seed, perfbench_workloads):
    # the benchmark's large carriers, of 42 to 400 elements: every cell
    # renders as in the reference document
    ref = perfbench_workloads.load_ref("verify_large.json")["results"]
    report = latq.run_suite(
        corpus=perfbench_workloads.large_corpus(latq), seed=seed)
    cells = ran = 0
    for check, row in report.results.items():
        for name, cell in row.items():
            assert docio.dumps(cell.cell_doc()) == \
                docio.dumps(ref[check][name]), (check, name)
            cells += 1
            ran += cell.status != "skip"
    assert (cells, ran) == (288, 84)


def test_run_suite_refuses_two_carriers_of_one_name(zoo):
    with pytest.raises(ValueError, match="^corpus has two carriers named 'c3'$"):
        latq.run_suite(corpus=[zoo["c3"], zoo["m3"].rename("c3")],
                       checks=["T1"])


def test_every_gate_decision_matches_committed_verify_reference(corpus):
    # each check's applicability on each built-in carrier gives the skip
    # reason of the reference document, and None where the cell ran
    ref = json.loads(VERIFY_REF.read_text())["results"]
    ctx = suite.SuiteContext()
    decisions = 0
    for chk in suite.REGISTRY:
        for L in corpus:
            cell = ref[chk.id][L.name]
            assert chk.applies(ctx, L) == cell.get("reason"), (chk.id, L.name)
            decisions += 1
    assert decisions == 18 * 86


def _t12_per_pair(L, Q):
    """T12's verdict by a loop over member pairs and single-map operations."""
    below = [{k for k, h in enumerate(Q.maps) if h <= f} for f in Q.maps]
    for i, f in enumerate(Q.maps):
        for j, g in enumerate(Q.maps):
            got = latq.big_meet([f, g])
            via_interior = latq.interior(latq.pointwise_meet([f, g]))
            inf = np.full(L.n, L.bottom, dtype=np.int32)
            for k in below[i] & below[j]:
                inf = L.join[inf, Q.matrix[k]]
            if not (got == via_interior
                    and np.array_equal(got.values, inf)):
                return False, {
                    "f": f.values.tolist(), "g": g.values.tolist(),
                    "big_meet": got.values.tolist(),
                    "interior_of_meet": via_interior.values.tolist(),
                    "enumerated_infimum": inf.tolist()}
    return True, None


def test_t12_batch_matches_per_pair_loop(corpus):
    ctx = suite.SuiteContext()
    failed = 0
    for L in corpus:
        if ctx.profile(L).completely_distributive or \
                latq.homset_estimate(L, L) > ctx.cap or \
                len(ctx.homset(L)) > 300:
            continue
        res = suite._t12(ctx, L)
        assert (res.holds, res.witness) == _t12_per_pair(L, ctx.homset(L)), \
            L.name
        failed += not res.holds
    assert failed == 8


def _t10_spied(monkeypatch, L, run=suite._t10, **spoils):
    """run(ctx, L) with the first output of each maps function named in
    spoils passed through it.  Returns run's result and, for each of
    sample_monotone_maps, _batch_interior and _batch_raney_join, the
    arguments and (spoiled) output of its first call: on a sampled carrier
    these are the monotone left factors Mo, the jc left factors J, and the
    rows g (A) with their transforms (RA)."""
    seen = {}

    def spy(name):
        real = getattr(maps, name)

        def call(*args):
            out = real(*args)
            if name not in seen:
                out = spoils.get(name, lambda o: o)(out)
                seen[name] = args, out
            return out
        return call

    with monkeypatch.context() as m:
        for name in ("sample_monotone_maps", "_batch_interior",
                     "_batch_raney_join"):
            m.setattr(maps, name, spy(name))
        got = run(suite.SuiteContext(), L)
    return got, seen


def _t10_left(seen, lax):
    """T10's left factors for the lax or the exact composition law."""
    return seen["sample_monotone_maps" if lax else "_batch_interior"][1]


def _t10_composites(L, left, A):
    """transform(d . g) for every left factor d and g in A, with every
    composite run through the kernel: no ranking, no keys."""
    comp = left[:, A]
    return maps._batch_raney_join(L, L, comp.reshape(-1, L.n)).reshape(
        comp.shape)


def _t10_holds(L, lhs, rhs, lax):
    return (L.leq[lhs, rhs] if lax else lhs == rhs).all(axis=-1)


def _t10_witness(law, left, A, ok):
    i, j = np.argwhere(~ok)[0]
    key = "monotone" if law == "lax_composition" else "jc"
    return {"law": law, key: left[i].tolist(), "g": A[j].tolist()}


@pytest.mark.parametrize("law", ["lax_composition", "exact_composition"])
def test_t10_witness_on_a_repeated_bad_left_factor(monkeypatch, zoo, law):
    L = zoo["n5"]                     # n > EXHAUSTIVE_N: sampled factors
    lax = law == "lax_composition"
    # rows 3 and 7 of the left factors become one map that breaks the law:
    # bottom to top and the rest to bottom is not monotone; top to top and
    # the rest to bottom is monotone but not jc (a v b = top in n5)
    bad = np.full(L.n, L.bottom, dtype=np.int32)
    bad[L.bottom if lax else L.top] = L.top

    def spoil(F):
        F = F.copy()
        F[[3, 7]] = bad
        return F

    got, seen = _t10_spied(monkeypatch, L, **{
        "sample_monotone_maps" if lax else "_batch_interior": spoil})
    (_, _, A), RA = seen["_batch_raney_join"]
    left = _t10_left(seen, lax)
    ok = _t10_holds(L, _t10_composites(L, left, A), left[:, RA], lax)
    assert got.witness == _t10_witness(law, left, A, ok)
    assert np.argwhere(~ok)[0][0] == 3 and not ok[7].all()


@pytest.mark.parametrize("law", ["lax_composition", "exact_composition"])
def test_t10_witness_on_a_spoiled_transform_row(monkeypatch, zoo, law):
    L = zoo["n5"]
    lax = law == "lax_composition"
    _, seen = _t10_spied(monkeypatch, L)
    (_, _, A), RA = seen["_batch_raney_join"]
    left = _t10_left(seen, lax)
    lhs = _t10_composites(L, left, A)

    def spoiled_at(g, x, v):
        """RA with RA[g, x] moved down to v (the lax law cannot see a move
        up), when that breaks the law at g for some left factor; else
        None."""
        if v == RA[g, x] or (lax and not L.leq[v, RA[g, x]]):
            return None
        R = RA.copy()
        R[g, x] = v
        return None if _t10_holds(L, lhs[:, g], left[:, R[g]], lax).all() \
            else R

    R = next(R for g in range(len(A)) for x in range(L.n)
             for v in range(L.n) if (R := spoiled_at(g, x, v)) is not None)
    # the spoil may break transform_monotone first, so the witness is the
    # composition law's own
    got, _ = _t10_spied(
        monkeypatch, L, run=lambda ctx, L: first_failing_law(
            v for v in suite._t10_laws(ctx, L) if v[0] == law),
        _batch_raney_join=lambda out: R.copy())
    ok = _t10_holds(L, lhs, left[:, R], lax)
    assert (~ok).any(axis=0).sum() == 1                   # one g fails
    assert got == _t10_witness(law, left, A, ok)


def test_t10_composition_laws_match_the_full_sweep_beyond_the_gate(
        monkeypatch, corpus):
    # carriers of 7 and 8 elements, past T10's gate; a non-monotone left
    # factor among the monotone ones and a monotone non-jc one among the jc
    # ones give the lax and the exact law False entries as well as True.
    # The sweep runs the kernel once per distinct composite, as T10 did
    # before its value-set tables
    big = [L for L in corpus if L.n in (7, 8)]
    assert len(big) == 13

    def mixed(F, row):
        F = F.copy()
        F[5] = row
        return F

    for L in big:
        down = np.full(L.n, L.top, dtype=np.int32)
        down[L.top] = L.bottom
        got, seen = _t10_spied(
            monkeypatch, L, run=lambda ctx, L: {
                law: ok for law, ok, _ in suite._t10_laws(ctx, L)},
            sample_monotone_maps=lambda F: mixed(F, down),
            _batch_interior=lambda F: mixed(F, np.full(L.n, L.top)))
        (_, _, A), RA = seen["_batch_raney_join"]
        for law, lax in (("lax_composition", True),
                         ("exact_composition", False)):
            left = _t10_left(seen, lax)
            T, ids = quantale._on_composites(maps._batch_raney_join, L,
                                             left, A)
            ok = _t10_holds(L, T[ids], left[:, RA], lax)
            assert ok.all(axis=1).any() and not ok[5].all(), (L.name, law)
            assert np.array_equal(got[law], ok), (L.name, law)

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latq
from latq import cd, cli, docio, lattice, maps, quantale, suite
from latq.cd import CheckResult, first_failing_law
from latq.errors import HomsetTooLarge
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


def test_summary_and_text_of_a_report_with_every_mark():
    # one cell of each mark: + pass, v vacuous pass, F fail, . declared
    # skip, ! unexpected skip; the text and counts are literal
    report = SuiteReport(
        corpus=["aa", "bbb"],
        checks=["T1", "T5", "T7"],
        results={
            "T1": {"aa": CheckResult("T1", True),
                   "bbb": CheckResult("T1", False, witness={"x": 1})},
            "T5": {"aa": CheckResult("T5", True, substantive=False),
                   "bbb": CheckResult("T5", False, reason="n > 4")},
            "T7": {"aa": CheckResult("T7", False, reason="cap hit",
                                     expected=False),
                   "bbb": CheckResult("T7", True, substantive=True)},
        },
        seed=0,
    )
    assert [[c.mark for c in row.values()]
            for row in report.results.values()] == [
        ["+", "F"], ["v", "."], ["!", "+"]]
    assert list(report.summary.items()) == [
        ("cells", 6), ("pass", 3), ("fail", 1), ("skip", 2),
        ("unexpected_skip", 1), ("vacuous_pass", 1)]
    assert report.render_text() == (
        "      T1   T5   T7\n"
        "aa     +    v    !\n"
        "bbb    F    .    +\n"
        "\n"
        "legend: + pass, v vacuous pass, F fail, . skip (declared), "
        "! skip (cap hit)\n"
        "cells 6: 3 pass (1 vacuous), 1 fail, 2 skip (1 unexpected)\n"
        "FAIL T1 on bbb: {'x': 1}\n"
        "UNEXPECTED SKIP T7 on aa: cap hit\n")
    assert not report.ok


def test_render_text_green(mini_report):
    text = mini_report.render_text()
    body = [line for line in text.splitlines()
            if not line.startswith(("legend:", "cells "))]
    assert all("F" not in line and "!" not in line for line in body)
    assert "cells 90: 67 pass (3 vacuous), 0 fail, 23 skip (0 unexpected)" \
        in text


def test_t1_witness_lists_both_maps(monkeypatch, zoo):
    # with a(t) spoiled to alpha(t), c(t) after it sends y to t exactly
    # when t <= y, so the join is the identity, not o
    b2 = zoo["b2"]
    tables = {k: maps.special_table(b2, k) for k in ("c", "alpha")}
    tables["a"] = tables["alpha"]
    monkeypatch.setattr(maps, "special_table", lambda L, kind: tables[kind])
    res = suite._t1(suite.SuiteContext(), b2)
    assert not res.holds
    assert res.witness == {"computed": [0, 1, 2, 3], "o": [0, 2, 1, 3]}
    assert json.dumps(res.witness) == \
        '{"computed": [0, 1, 2, 3], "o": [0, 2, 1, 3]}'


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
    # than the reference's 0 every cell of every check still renders as in
    # the reference, on all the built-ins
    ref = json.loads(VERIFY_REF.read_text())["results"]
    report = latq.run_suite(corpus=corpus, checks=list(latq.CHECK_IDS),
                            seed=1)
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


@pytest.mark.parametrize("name, forced, failing", [
    ("c3", False, {"T5", "T6n", "T8n", "T9n", "T12n", "T13"}),
    ("n5", True, {"T6", "T8", "T9", "T13"}),
], ids=["c3_read_as_non_cd", "n5_read_as_cd"])
def test_a_forced_binding_pair_reading_fails_the_cross_checks(
        zoo, name, forced, failing):
    # the gates and the axiom route read one decider, is_distributive;
    # forced wrong on a renamed copy (the shared carrier keeps its own),
    # it admits the carrier to the wrong twins, and the checks that
    # compute Raney's criterion, the axioms or a cyclic dualizing element
    # their own way fail there
    L = zoo[name].rename(name)
    L.__dict__["is_distributive"] = forced
    report = latq.run_suite(corpus=[L])
    assert {check for check, row in report.results.items()
            if row[name].status == "fail"} == failing


def test_the_suite_decides_complete_distributivity_once(
        monkeypatch, corpus):
    # no cell asks the Raney criterion for a profile: the gates, T11 and
    # the axiom route read the carrier's own binding-pair table
    calls = []
    monkeypatch.setattr(cd, "classify_lattice", lambda L, real=(
        cd.classify_lattice): calls.append(L.name) or real(L))
    assert latq.run_suite(corpus=corpus).ok
    assert calls == []


def test_each_gate_bound_admits_at_the_bound_and_skips_past_it(corpus):
    # the gates bind their caps at import, so each is built here; c3 is
    # distributive, and its 6 jc endomaps lie under the estimate 3 ** 2
    L = next(M for M in corpus if M.name == "c3")
    ctx = suite.SuiteContext()
    q = len(ctx.homset(L))
    est = L.n ** len(L.join_irreducibles)
    with pytest.raises(latq.CapExceeded) as refused:
        quantale.enumerate_homset(L, L, est - 1)
    admits = [(ctx, {"max_q": q}), (ctx, {"max_n": L.n}),
              (ctx, {"min_n": L.n}), (ctx, {"cd": True}),
              (suite.SuiteContext(cap=est), {"max_q": q})]
    skips = [(ctx, {"max_q": q - 1}, f"homset too large (|Q| > {q - 1})"),
             (ctx, {"max_n": L.n - 1}, "carrier too large (n=3 > 2)"),
             (ctx, {"min_n": L.n + 1}, "needs at least four elements"),
             (ctx, {"cd": False},
              "needs a non completely distributive carrier"),
             (suite.SuiteContext(cap=est - 1), {"max_q": q},
              str(refused.value))]
    for at, gate in admits:
        assert suite._gate(**gate)(at, L) is None, gate
    for at, gate, reason in skips:
        assert suite._gate(**gate)(at, L) == reason, gate


def test_a_refusal_inside_a_check_is_an_unexpected_skip(
        monkeypatch, tmp_path, zoo):
    def refuse(Q):
        raise latq.CapExceeded("refused inside the check")

    monkeypatch.setattr(quantale, "cyclic_elements", refuse)
    report = latq.run_suite(corpus=[zoo["c3"]], checks=["T3"])
    cell = report.results["T3"]["c3"]
    assert cell.status == "skip" and cell.expected is False
    assert cell.reason == "refused inside the check"
    assert report.summary["unexpected_skip"] == 1 and not report.ok
    assert any(line.startswith("UNEXPECTED SKIP T3 on c3")
               for line in report.render_text().splitlines())
    docio.save_lattice(zoo["c3"], str(tmp_path / "c3.json"))
    assert cli.main(
        ["verify", "--checks", "T3", "--corpus", str(tmp_path)]) == 1


def test_run_suite_refuses_two_carriers_of_one_name(zoo):
    with pytest.raises(ValueError, match="^corpus has two carriers named 'c3'$"):
        latq.run_suite(corpus=[zoo["c3"], zoo["m3"].rename("c3")],
                       checks=["T1"])


def test_run_suite_refuses_an_unnamed_carrier():
    # cells and sampled families are keyed by the carrier's name
    chain = latq.build_poset(3, [(0, 1), (1, 2)])
    for corpus in ([latq.build_lattice(chain)],
                   [latq.build_lattice(chain), latq.build_lattice(chain)]):
        with pytest.raises(ValueError,
                           match="^corpus has an unnamed carrier$"):
            latq.run_suite(corpus=corpus, checks=["T1"])


def test_one_run_draws_each_sampled_carrier_once(monkeypatch, corpus):
    # T8, T9 and T10 share one family per carrier: one draw for each
    # built-in with 5 or 6 elements
    drawn = []
    real = maps.sample_monotone_maps

    def spy(dom, cod, count, rng):
        drawn.append(dom.name)
        return real(dom, cod, count, rng)
    monkeypatch.setattr(maps, "sample_monotone_maps", spy)
    assert latq.run_suite(corpus=corpus, seed=1).ok
    assert len(drawn) == 22
    assert sorted(drawn) == sorted(L.name for L in corpus if L.n in (5, 6))


def test_family_covers_exactly_the_endo_homset_when_exhaustive(corpus):
    # up to EXHAUSTIVE_N elements J is the interior of every monotone map:
    # its distinct rows are the enumerated homset, with no enumeration
    checked = 0
    for L in corpus:
        if L.n > suite.EXHAUSTIVE_N:
            continue
        J = suite.SuiteContext().family(L)[2]
        Q = latq.enumerate_homset(L, L)
        assert {r.tobytes() for r in J} == {r.tobytes() for r in Q.matrix}, \
            L.name
        checked += 1
    assert checked == 19


def test_cap_refusals_are_expected_skips_in_the_refusals_words(corpus):
    # at cap 3 the gates skip on enumerate_homset's own refusal, and T8,
    # T9 and T10 read no homset, so no cell skips unexpectedly
    report = latq.run_suite(corpus=corpus, cap=3)
    assert report.summary["unexpected_skip"] == 0
    by_name = {L.name: L for L in corpus}
    refused = 0
    for row in report.results.values():
        for name, cell in row.items():
            if cell.status != "skip" or "beyond enumeration cap" not in (
                    cell.reason or ""):
                continue
            L = by_name[name]
            with pytest.raises(latq.CapExceeded) as e:
                latq.enumerate_homset(L, L, 3)
            assert cell.reason == str(e.value), name
            refused += 1
    assert refused == 379


def _same_family(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _first_occurrences(F):
    """The distinct rows of F in first-drawn order, by a plain loop."""
    seen, keep = set(), []
    for row in F:
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            keep.append(row)
    return np.array(keep).reshape(-1, F.shape[1])


def _raw_family(monkeypatch, L, seed=0):
    """SuiteContext(seed).family(L) and the raw draws of its parts (A, Mo,
    J), spied from the first call of each maps function that draws them;
    the raw J is the interior of every raw Mo row."""
    got = {}

    def spy(name, keep):
        real = getattr(maps, name)

        def call(*args):
            out = real(*args)
            if name not in got:
                got[name] = keep(args, out)
            return out
        return call

    with monkeypatch.context() as m:
        for name in ("all_maps_array", "monotone_maps_array",
                     "sample_monotone_maps"):
            m.setattr(maps, name, spy(name, lambda args, out: out))
        # A's second half is drawn above its first, the first call's
        # argument (sample_monotone_maps calls it too, later)
        m.setattr(maps, "_draw_above", spy(
            "_draw_above", lambda args, out: np.vstack([args[1], out])))
        family = suite.SuiteContext(seed=seed).family(L)
    sampled = L.n > suite.EXHAUSTIVE_N
    A = got["_draw_above" if sampled else "all_maps_array"]
    Mo = got["sample_monotone_maps" if sampled else "monotone_maps_array"]
    return family, (A, Mo, maps._batch_interior(L, L, Mo))


def test_family_is_drawn_per_name_not_per_carrier(monkeypatch, corpus):
    # equal carriers under two names: the second name's family is the
    # same whether or not the first was drawn before it, and differs from
    # the first's in every part; each part is the distinct rows of its
    # SAMPLE_COUNT draws, in first-drawn order
    by = {L.name: L for L in corpus}
    for first, second in (("d3_1", "r27"), ("c5", "d4_15")):
        assert by[first] == by[second] and by[first].n > suite.EXHAUSTIVE_N
        fresh, raw = _raw_family(monkeypatch, by[second], seed=1)
        ctx = suite.SuiteContext(seed=1)
        other = ctx.family(by[first])
        after = ctx.family(by[second])
        assert _same_family(fresh, after), second
        assert [len(F) for F in raw] == [suite.SAMPLE_COUNT] * 3
        assert _same_family(after, map(_first_occurrences, raw)), second
        assert not any(np.array_equal(x, y) for x, y in zip(other, after))


def test_family_parts_are_the_distinct_raw_draws(monkeypatch, corpus):
    # on every exhaustive and sampled built-in, each part is a plain-loop
    # first-occurrence dedup of its raw draws; sampled Mo and J repeat
    repeats = 0
    for L in corpus:
        if L.n > suite.SAMPLED_N:
            continue
        family, raw = _raw_family(monkeypatch, L, seed=2)
        for part, draws in zip(family, raw):
            assert np.array_equal(part, _first_occurrences(draws)), L.name
        repeats += L.n > suite.EXHAUSTIVE_N and len(family[2]) < len(raw[2])
    assert repeats == 22


def test_family_follows_the_seed(zoo):
    # test_seed_determinism compares verdicts, all passes; this compares
    # the sampled maps themselves
    L = zoo["n5"]
    a = suite.SuiteContext(seed=3).family(L)
    assert _same_family(a, suite.SuiteContext(seed=3).family(L))
    assert not _same_family(a, suite.SuiteContext(seed=4).family(L))


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
        if L.is_distributive:
            continue
        try:
            Q = ctx.homset(L)
        except latq.CapExceeded:
            continue
        if len(Q) > 300:
            continue
        res = suite._t12(ctx, L)
        assert (res.holds, res.witness) == _t12_per_pair(L, Q), L.name
        failed += not res.holds
    assert failed == 8


def _t10_spied(monkeypatch, L, run=suite._t10, **spoils):
    """run(ctx, L) with the first output of each maps function named in
    spoils passed through it.  Returns run's result and, for each of
    sample_monotone_maps, _batch_interior and _batch_raney_join, the
    arguments and (spoiled) output of its first call: on a sampled carrier
    these are the raw monotone draws Mo, the interior of their distinct
    rows (J with its repeats), and the family's rows g (A) with their
    transforms (RA)."""
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


def _t8_t9_sweep(L, F, check):
    """T8's or T9's witness over every row of F, repeats and all: the
    named rows at the first row where the check's law fails."""
    if check == "T8":
        rows = {"f": F, "roundtrip": maps._batch_raney_join(
            L, L, maps._batch_raney_meet(L, L, F))}
        ok = (rows["roundtrip"] == F).all(axis=1)
    else:
        o = maps.special(L, "o").values
        om = maps.special(L, "omega").values
        rows = {"f": F, "interior": maps._batch_interior(L, L, F),
                "join_transform_after_omega": maps._batch_raney_join(
                    L, L, F[:, om]),
                "join_transform": maps._batch_raney_join(L, L, F),
                "interior_after_o": maps._batch_interior(L, L, F[:, o])}
        ok = ((rows["interior"] == rows["join_transform_after_omega"])
              & (rows["join_transform"] == rows["interior_after_o"])
              ).all(axis=1)
    failing = np.flatnonzero(~ok)
    return {k: v[failing[0]].tolist() for k, v in rows.items()}, failing


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("check", ["T8", "T9"])
def test_t8_t9_witness_on_repeated_bad_rows(monkeypatch, zoo, check, swap):
    # one bad row at positions 3 and 7 of the raw rows the check reads (J
    # for T8, Mo for T9) and another at 5: the family keeps row 3 alone of
    # the first, before row 5, so the witness is the full-row sweep's.
    # Either row first, so a family in rank order would show
    L = zoo["p23"]                    # CD, n > EXHAUSTIVE_N: sampled rows
    up = np.full(L.n, L.bottom, dtype=np.int32)
    up[L.bottom] = L.top
    down = np.full(L.n, L.top, dtype=np.int32)
    down[L.top] = L.bottom
    twice, once = (down, up) if swap else (up, down)

    def spoil(F):
        F = F.copy()
        F[[3, 7]], F[5] = twice, once
        return F

    source = "_batch_interior" if check == "T8" else "sample_monotone_maps"
    got, seen = _t10_spied(monkeypatch, L, run=getattr(suite, "_t" + check[1:]),
                           **{source: spoil})
    want, failing = _t8_t9_sweep(L, seen[source][1], check)
    assert not got.holds and got.witness == want
    assert {3, 5, 7} <= set(failing) and failing[0] == 3


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
    # before its value-set tables, over every distinct left factor: T10's
    # own rows
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
            raw = _t10_left(seen, lax)
            left = _first_occurrences(raw)
            T, ids = quantale._on_composites(maps._batch_raney_join, L,
                                             left, A)
            ok = _t10_holds(L, T[ids], left[:, RA], lax)
            spoiled = (left == raw[5]).all(axis=1).argmax()
            assert ok.all(axis=1).any() and not ok[spoiled].all(), \
                (L.name, law)
            assert np.array_equal(got[law], ok), (L.name, law)


@pytest.mark.parametrize("name", ["n5", "p23"])
def test_t10_composition_laws_in_blocks_of_rows_and_keys(
        monkeypatch, zoo, name):
    # a budget below one left factor's join over all the point keys, so
    # `_gathered_joins` joins one factor at a time and the keys in blocks
    # of about a third: the laws still equal the full sweep, a kernel run
    # on every composite, with False entries planted as beyond the gate
    L = zoo[name]
    A, _, _ = suite.SuiteContext().family(L)
    S = suite._t10_point_keys(L, A, maps._batch_raney_join(L, L, A))[0]
    keys = maps._padded(S, L.n)
    cell = 4 * keys.shape[1]                   # one factor at one key
    monkeypatch.setattr(lattice, "_CHUNK_BYTES", cell * len(keys) // 3)
    assert 1 < len(keys) // 3 < len(keys)      # the keys a block joins

    def mixed(F, row):
        F = F.copy()
        F[5] = row
        return F

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
        left = _first_occurrences(_t10_left(seen, lax))
        ok = _t10_holds(L, _t10_composites(L, left, A), left[:, RA], lax)
        assert ok.all(axis=1).any() and not ok.all(), (name, law)
        assert np.array_equal(got[law], ok), (name, law)


def test_each_refused_homset_is_refused_once_per_run(monkeypatch):
    # T6n, T7 and T13 each ask for the endo homset of a carrier that
    # enumerate_homset refuses by its estimate, and every max_q gate for
    # one it stops past CENTER_HOMSET_CAP members; the run keeps the
    # refusal, so each refused built-in is refused once, and every asking
    # cell skips on the estimate's message or the gate's own
    refusals, too_large = [], []
    real = quantale.enumerate_homset

    def counted(dom, cod, cap=quantale.DEFAULT_CAP, limit=None):
        try:
            return real(dom, cod, cap, limit=limit)
        except HomsetTooLarge:
            too_large.append(dom.name)
            raise
        except latq.CapExceeded:
            refusals.append(dom.name)
            raise

    monkeypatch.setattr(quantale, "enumerate_homset", counted)
    report = latq.run_suite(seed=1)
    refused = set(refusals)
    assert len(refusals) == len(refused) == 12
    assert sorted(too_large) == sorted(set(too_large)) == [
        "d4_0", "d4_1", "r03", "r07", "r12", "r23", "r28", "r32", "r33",
        "r42"]
    asked, gated = {}, {}
    for check, row in report.results.items():
        for name, cell in row.items():
            if cell.reason and cell.reason.startswith("homset estimate"):
                asked[name] = asked.get(name, 0) + 1
            if cell.reason and cell.reason.startswith("homset too large"):
                gated[name] = gated.get(name, 0) + 1
    assert set(asked) == refused and min(asked.values()) >= 2
    assert set(too_large) <= set(gated)


def test_the_suite_builds_no_homset_past_the_largest_gate(monkeypatch):
    # the homset fact stops past CENTER_HOMSET_CAP members, and the axiom
    # check enumerates only what a PAIR_HOMSET_CAP gate admitted
    sizes = []

    class Spied(quantale.HomsetEnumeration):
        def __init__(self, dom, cod, matrix):
            super().__init__(dom, cod, matrix)
            sizes.append(len(self))

    monkeypatch.setattr(quantale, "HomsetEnumeration", Spied)
    assert latq.run_suite(seed=1).ok
    assert sizes and max(sizes) <= suite.CENTER_HOMSET_CAP


def test_a_gate_past_the_homset_limit_is_refused_when_built(corpus):
    # a limit refusal is the gate's own reason at every max_q up to the
    # limit, and a gate above the limit is not built
    L = next(M for M in corpus if M.name == "d4_0")
    ctx = suite.SuiteContext()
    for max_q in (suite.PAIR_HOMSET_CAP, suite.CENTER_HOMSET_CAP):
        assert suite._gate(max_q=max_q)(ctx, L) == \
            f"homset too large (|Q| > {max_q})"
    with pytest.raises(ValueError):
        suite._gate(max_q=suite.CENTER_HOMSET_CAP + 1)


def test_each_carrier_is_released_after_its_last_equal_member(
        monkeypatch, corpus):
    # the run goes carrier by carrier, every check on one carrier before
    # the next, and drops a carrier's facts right after the last member
    # equal to it; a release finds only that carrier and carriers with a
    # member still to come in the store, and the run ends with it empty
    events, ctxs = [], []

    def logged(chk):
        def applies(ctx, L):
            events.append(("cell", chk.id, L.name))
            return chk.applies(ctx, L)
        return dataclasses.replace(chk, applies=applies)

    real = suite.SuiteContext.release

    def release(ctx, L):
        k = sum(e[0] == "cell" for e in events) // len(suite.REGISTRY) - 1
        assert corpus[k] is L and L in ctx.facts
        assert all(M == L or any(M == N for N in corpus[k + 1:])
                   for M in ctx.facts), L.name
        events.append(("release", L.name))
        ctxs.append(ctx)
        real(ctx, L)
        assert L not in ctx.facts

    monkeypatch.setattr(suite, "REGISTRY",
                        tuple(map(logged, suite.REGISTRY)))
    monkeypatch.setattr(suite.SuiteContext, "release", release)
    assert latq.run_suite(corpus=corpus, seed=1).ok
    want = []
    for k, L in enumerate(corpus):
        want += [("cell", c.id, L.name) for c in suite.REGISTRY]
        if not any(M == L for M in corpus[k + 1:]):
            want.append(("release", L.name))
    assert events == want
    assert 50 < len(ctxs) < len(corpus)
    assert len(set(map(id, ctxs))) == 1 and ctxs[0].facts == {}


def _suite_peak(seeds) -> int:
    """The tracemalloc peak of one run over fresh random carriers."""
    spec = latq.GeneratorSpec
    corpus = [latq.generate(spec("random", seed=s, n=3 + s % 6)).rename(
        f"x{s:03d}") for s in seeds]
    tracemalloc.start()
    try:
        assert latq.run_suite(corpus=corpus, seed=0).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_suite_memory_is_bounded_by_a_carrier_not_the_corpus():
    # three times the carriers put the peaks about 1.3 MB apart; keeping
    # every carrier's facts for the whole run puts them 7 MB apart
    assert _suite_peak(range(120)) - _suite_peak(range(40)) <= 3 << 20


# ------------------------------------------------ every check able to fail

def _every_pair_holds(Q, C, K):
    """A detector that finds its law holding at every pair (k, c)."""
    return np.ones((1, len(C)), dtype=bool), {}


def _first_row_top(real):
    """The kernel real, with its first output row sent to the top."""
    def spoiled(dom, cod, F):
        out = np.array(real(dom, cod, F))
        out[:1] = cod.top
        return out
    return spoiled


def _first_call_negated(real):
    """real, with the output of its first call negated."""
    calls = []

    def spoiled(*args):
        calls.append(None)
        return ~real(*args) if len(calls) == 1 else real(*args)
    return spoiled


def _interior_by_the_cd_formula(dom, cod, H):
    """The interior as T9 computes it on CD carriers alone: the join
    transform after omega."""
    omega = maps.special(dom, "omega").values
    return maps._batch_raney_join(dom, cod, H[:, omega])


def _non_monotone_first_row(real):
    """real, with its first row sending the bottom alone to the top."""
    def spoiled(dom, cod):
        out = real(dom, cod).copy()
        out[0] = cod.bottom
        out[0, cod.bottom] = cod.top
        return out
    return spoiled


def _plant(module, name, make):
    """A plant that rebinds module.name to make(the real one)."""
    return lambda m, L: m.setattr(module, name, make(getattr(module, name)))


# check -> (carrier, plant, law, witness keys): the plant is a fault in a
# fact or kernel the check's body reads, on a carrier its gate admits
PLANTS = {
    "T1": ("b2", _plant(maps, "special_table", lambda real: (  # a is alpha
        lambda L, kind, x=slice(None): real(
            L.op if kind == "a" else L, kind, x))),
        None, {"computed", "o"}),
    "T2": ("c3", _plant(maps, "_batch_interior", _first_row_top),
           None, {"x", "interior", "annihilator_at_o(x)"}),
    "T3": ("c3", _plant(quantale, "_cyclic", lambda _: _every_pair_holds),
           None, {"cyclic_but_unexpected"}),
    "T4": ("c2", _plant(quantale, "_dualizing", lambda _: _every_pair_holds),
           None, {"constant_top_dualizing"}),
    "T5": ("n5", _plant(quantale, "_cyclic", lambda _: _every_pair_holds),
           None, {"premise", "meet_criterion", "distributive"}),
    "T6": ("c2", _plant(quantale, "_batch_raney_join", _first_row_top),
           "double_transform", {"law", "f", "twice"}),
    "T6n": ("m3", _plant(quantale, "_axiom_laws",
                         lambda _: lambda *args: iter(())),
            None, {"axioms_hold_on_non_cd"}),
    "T7": ("c3", _plant(quantale, "_central", lambda _: _every_pair_holds),
           None, {"difference_member"}),
    "T8": ("c3", _plant(maps, "_batch_interior", _first_row_top),
           None, {"f", "roundtrip"}),
    "T8n": ("n5", _plant(maps, "_batch_raney_join",
                         lambda _: lambda dom, cod, F: np.array(F)),
            None, {"roundtrip_fixed_identity"}),
    "T9": ("c3", _plant(maps, "_batch_interior", _first_row_top),
           None, {"f", "interior", "join_transform_after_omega",
                  "join_transform", "interior_after_o"}),
    "T9n": ("n5", _plant(maps, "_batch_interior",
                         lambda _: _interior_by_the_cd_formula),
            None, {"interior_formula_held_on_non_cd"}),
    "T10": ("c3", _plant(maps, "monotone_maps_array",
                         _non_monotone_first_row),
            "lax_composition", {"law", "monotone", "g"}),
    "T11": ("c3", _plant(suite, "is_chain", lambda real: (
        lambda L: not real(L))),
        None, {"o_below_id", "chain", "id_below_o", "smooth"}),
    "T12": ("c2", _plant(maps, "_batch_interior", _first_row_top),
            None, {"f", "g", "big_meet", "interior_of_meet",
                   "enumerated_infimum"}),
    "T12n": ("m3", _plant(maps, "_batch_big_meet",
                          lambda _: maps._batch_interior),
             None, {"big_meet_matched_on_non_cd"}),
    "T13": ("n5", _plant(quantale, "_dualizing", lambda _: _every_pair_holds),
            None, {"distributive_oracle", "involutive_axioms",
                   "cyclic_dualizing_found"}),
    "T14": ("c2", _plant(quantale, "_composites_below", _first_call_negated),
            "triangle_rotation", {"law", "f", "e", "g", "compose_below",
                                  "rotated_left", "rotated_right"}),
}


@pytest.mark.parametrize("check", sorted(set(suite.CHECK_IDS) | set(PLANTS)))
def test_every_check_fails_on_a_planted_fault(monkeypatch, zoo, check):
    # the gate admits the carrier before the plant, and the body, run on
    # the same facts with the plant in place, fails with its witness; a
    # body that always held, or a check with no plant, fails here
    assert check in suite.CHECK_IDS and check in PLANTS, check
    name, plant, law, keys = PLANTS[check]
    L = zoo[name].rename(name)       # tables of its own, which plants spoil
    entry = next(c for c in suite.REGISTRY if c.id == check)
    ctx = suite.SuiteContext()
    assert entry.applies(ctx, L) is None
    plant(monkeypatch, L)
    res = entry.run(ctx, L)
    assert res.status == "fail" and set(res.witness) == keys
    assert law is None or res.witness["law"] == law

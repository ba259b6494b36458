import itertools
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import latq
import oracles
from latq.cd import CheckResult, first_failing_law, row_witness, verdict


def closure_lattices():
    return st.builds(
        lambda seed, n: latq.generate(
            latq.GeneratorSpec("random", seed=seed, n=n)),
        st.integers(0, 5000), st.integers(1, 7))


def test_criteria_hold_on_distributive_zoo(zoo):
    for name in ("c1", "c2", "c3", "c4", "b2", "b3", "p23"):
        L = zoo[name]
        assert latq.raney_join_criterion(L).holds, name
        assert latq.raney_meet_criterion(L).holds, name
        assert latq.distributive_oracle(L).holds, name


def test_criteria_fail_with_witnesses_on_m3_n5(zoo):
    m3, n5 = zoo["m3"], zoo["n5"]
    rj = latq.raney_join_criterion(m3)
    assert not rj.holds
    assert rj.witness == {"x": 1, "computed": 0}
    rm = latq.raney_meet_criterion(n5)
    assert not rm.holds
    assert rm.witness["y"] == 1
    om3 = latq.distributive_oracle(m3)
    assert not om3.holds
    x, y, z = om3.witness["x"], om3.witness["y"], om3.witness["z"]
    assert m3.meet[x, m3.join[y, z]] == om3.witness["lhs"]
    assert m3.join[m3.meet[x, y], m3.meet[x, z]] == om3.witness["rhs"]
    assert om3.witness["lhs"] != om3.witness["rhs"]


@given(closure_lattices())
def test_three_criteria_always_agree(L):
    assert latq.criteria_agree(L)


def bounded_family_cd_check(L, max_i: int = 2, max_j: int = 2,
                            work_cap: int = 1 << 20) -> CheckResult:
    """Meet-of-joins equals join of choice-function meets, up to the bounds.

    A test oracle of plain loops over the tables.  Only full max_i x max_j
    matrices are enumerated: a shorter row is the same row with a repeated
    value, and a duplicated row changes neither side (its extra choice
    terms are absorbed by the join), so smaller shapes are covered.
    """
    n = L.n
    if n ** (max_i * max_j) > work_cap:
        raise latq.CapExceeded(
            f"{n}^{max_i * max_j} families exceed the {work_cap} work cap")
    rows = list(itertools.product(range(n), repeat=max_j))
    row_join = [oracles.sup(L, r) for r in rows]
    choices = list(itertools.product(range(max_j), repeat=max_i))
    for mat in itertools.product(range(len(rows)), repeat=max_i):
        lhs = oracles.inf(L, (row_join[r] for r in mat))
        rhs = L.bottom
        for psi in choices:
            term = oracles.inf(L, (rows[mat[i]][psi[i]] for i in range(max_i)))
            rhs = int(L.join[rhs, term])
            if rhs == lhs:
                break
        if rhs != lhs:
            witness = {
                "family": [list(rows[r]) for r in mat],
                "lhs": lhs,
                "rhs": rhs,
            }
            return CheckResult("bounded_family_cd_check", False, witness)
    return CheckResult("bounded_family_cd_check", True)


@given(closure_lattices())
def test_bounded_family_check_matches_criteria(L):
    # larger carriers are refused by the work cap (test_bounded_family_cap)
    assume(L.n ** 4 <= 1 << 20)
    fam = bounded_family_cd_check(L)
    assert fam.holds == latq.raney_join_criterion(L).holds


def test_bounded_family_witness_replays(zoo):
    L = zoo["m3"]
    res = bounded_family_cd_check(L)
    assert not res.holds
    rows = res.witness["family"]
    lhs = L.inf(L.sup(r) for r in rows)
    assert lhs == res.witness["lhs"]
    # rhs is the join over choice functions of row-element meets
    rhs = L.bottom
    for psi in itertools.product(range(len(rows[0])), repeat=len(rows)):
        term = L.inf(rows[i][psi[i]] for i in range(len(rows)))
        rhs = int(L.join[rhs, term])
    assert rhs == res.witness["rhs"]
    assert lhs != rhs


def test_bounded_family_cap():
    big = latq.generate(latq.GeneratorSpec("boolean", k=4))
    with pytest.raises(latq.CapExceeded):
        bounded_family_cd_check(big, work_cap=10)


def test_is_spatial(zoo):
    assert latq.is_spatial(zoo["c3"])
    assert latq.is_spatial(zoo["b3"])
    # n5: the doubled chain's middle element is not a join of primes
    assert not latq.is_spatial(zoo["n5"])
    assert not latq.is_spatial(zoo["m3"])
    assert latq.is_spatial(zoo["c1"])


def test_is_spatial_matches_a_plain_loop(corpus):
    # every element is the join of the completely join-primes below it
    n = latq.lattice.MAX_ELEMENTS
    chain = latq.build_lattice(
        latq.build_poset(n, [(i, i + 1) for i in range(n - 1)]))
    verdicts = set()
    for L in [*corpus, chain]:
        primes = latq.completely_join_primes(L)
        want = all(oracles.sup(L, [p for p in primes if L.leq[p, x]]) == x
                   for x in range(L.n))
        assert latq.is_spatial(L) == want, L.name
        verdicts.add(want)
    assert verdicts == {True, False}


def test_profile_fixtures(zoo):
    doc = latq.classify_lattice(zoo["m3"]).as_doc()
    assert doc == {
        "name": "m3", "n": 5, "chain": False, "distributive": False,
        "completely_distributive": False, "smooth": True, "spatial": False,
        "join_primes": [],
    }
    doc = latq.classify_lattice(zoo["c3"]).as_doc()
    assert doc == {
        "name": "c3", "n": 3, "chain": True, "distributive": True,
        "completely_distributive": True, "smooth": False, "spatial": True,
        "join_primes": [1, 2],
    }
    doc = latq.classify_lattice(zoo["n5"]).as_doc()
    assert doc["completely_distributive"] is False
    assert doc["smooth"] is False
    assert doc["join_primes"] == [1, 2]


def test_row_witness_one_dimensional():
    ok = np.array([True, False, False])
    rows = {"x": np.arange(3), "f": np.arange(6).reshape(3, 2)}
    assert row_witness(ok, rows) == {"x": 1, "f": [2, 3]}
    assert row_witness(np.ones(3, dtype=bool), rows) is None


def test_row_witness_first_failure_in_row_major_order():
    ok = np.ones((3, 4), dtype=bool)
    ok[2, 0] = ok[1, 3] = False
    F = np.arange(12).reshape(4, 3)
    w = row_witness(ok, {"at": np.arange(12).reshape(3, 4),
                         "left": np.arange(3)[:, None], "right": F[None]})
    assert w == {"at": 7, "left": 1, "right": [9, 10, 11]}


def test_row_witness_broadcasts_leading_axes_of_a_pair():
    F = np.array([[0, 1], [1, 1], [0, 0]])
    ok = np.ones((3, 3, 2), dtype=bool)
    ok[2, 1, 0] = False
    ok[2, 2, 1] = False
    one = np.array([5, 6])[None, None, None]
    w = row_witness(ok, {"f": F[:, None, None], "g": F[None, :, None],
                         "fixed": one, "flag": ok})
    assert w == {"f": [0, 0], "g": [1, 1], "fixed": [5, 6], "flag": False}
    assert list(w) == ["f", "g", "fixed", "flag"]


def test_first_failing_law_drops_each_law_and_stops_at_the_first_failure():
    seen = {}

    def tracked(a):
        seen.setdefault("refs", []).append(weakref.ref(a))
        return a

    def laws():
        yield "holds", tracked(np.ones(3, dtype=bool)), {
            "x": tracked(np.arange(3))}
        # the first law's arrays are gone before this law is computed
        seen["alive"] = [r() is not None for r in seen["refs"]]
        yield "fails", np.array([True, False, False]), {
            "x": np.arange(3), "f": np.arange(6).reshape(3, 2)}
        seen["computed_after_failure"] = True
        yield "later", np.zeros(1, dtype=bool), {"y": np.arange(1)}

    ok = np.array([True, False, False])
    rows = {"x": np.arange(3), "f": np.arange(6).reshape(3, 2)}
    assert first_failing_law(laws()) == {"law": "fails",
                                         **row_witness(ok, rows)}
    assert seen["alive"] == [False, False]
    assert "computed_after_failure" not in seen
    assert first_failing_law(iter([("holds", ok[:1], rows)])) is None


def test_verdict_is_row_witness_as_a_check_result():
    ok = np.array([True, False])
    rows = {"x": np.arange(2)}
    res = verdict("probe", ok, rows)
    assert (res.name, res.holds, res.witness) == ("probe", False, {"x": 1})
    assert verdict("probe", ok[:1], rows).witness is None


def test_check_result_doc_timing_flag():
    res = latq.raney_join_criterion(
        latq.generate(latq.GeneratorSpec("chain", n=2)))
    assert "elapsed_ms" not in res.as_doc()
    assert "elapsed_ms" in res.as_doc(timing=True)


@given(closure_lattices())
def test_finite_cd_equals_plain_distributivity(L):
    # on finite carriers the profile's two distributivity fields coincide
    p = latq.classify_lattice(L)
    assert p.completely_distributive == p.distributive

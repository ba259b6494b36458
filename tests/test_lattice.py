import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import latq
import oracles


def closure_lattices():
    return st.builds(
        lambda seed, n: latq.generate(
            latq.GeneratorSpec("random", seed=seed, n=n)),
        st.integers(0, 5000), st.integers(1, 6))


# ------------------------------------------------------------ poset layer

def test_build_poset_closes_transitively():
    p = latq.build_poset(4, [(0, 1), (1, 2), (2, 3)])
    assert p.leq[0, 3] and p.leq[0, 2] and p.leq[1, 3]
    assert not p.leq[3, 0]


def test_build_poset_keeps_labels_as_given():
    # covers given against the index order: 2 is the bottom, 0 the top
    p = latq.build_poset(3, [(2, 1), (1, 0)])
    assert p.covers == ((1, 0), (2, 1))
    assert p.leq[2].all() and p.leq[:, 0].all()
    L = latq.build_lattice(p)
    assert (L.bottom, L.top) == (2, 0)
    assert L.poset.toposort == (2, 1, 0)


def test_build_poset_rejects_cycles_and_bad_indices():
    with pytest.raises(latq.CycleDetected):
        latq.build_poset(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(latq.CycleDetected):
        latq.build_poset(2, [(0, 0)])
    with pytest.raises(latq.IndexOutOfRange):
        latq.build_poset(2, [(0, 5)])


def test_poset_validation_rejects_non_transitive_matrix():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True  # missing 0 <= 2
    with pytest.raises(ValueError):
        latq.Poset(leq)


def test_covers_recover_the_input_edges():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    p = latq.build_poset(4, edges)
    assert sorted(p.covers) == sorted(edges)


def test_long_chain_has_only_its_own_covers():
    # 256 paths run from 0 to 257 in a 300-chain; a product that counts
    # them modulo 256 reads that as no path and finds a phantom cover
    edges = [(i, i + 1) for i in range(299)]
    L = latq.build_lattice(latq.build_poset(300, edges))
    assert L.poset.covers == tuple(edges)
    assert L.join_irreducibles == tuple(range(1, 300))


def test_poset_validation_sees_a_gap_behind_256_paths():
    leq = np.triu(np.ones((300, 300), dtype=bool))
    leq[0, 257] = False  # yet 0 <= k <= 257 for each of k = 1..256
    with pytest.raises(ValueError, match="transitive"):
        latq.Poset(leq)


# ---------------------------------------------------------- lattice layer

def test_build_lattice_rejects_missing_joins():
    # two maximal points over a shared bottom: 1 v 2 has no least upper bound
    p = latq.build_poset(3, [(0, 1), (0, 2)])
    with pytest.raises(latq.NotALattice):
        latq.build_lattice(p)


def test_build_lattice_rejects_ambiguous_joins():
    # 1 and 2 have uppers 3 and 4 but no least one
    p = latq.build_poset(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                             (3, 5), (4, 5)])
    with pytest.raises(latq.NotALattice):
        latq.build_lattice(p)


def _join_table_oracle(L):
    for x in range(L.n):
        for y in range(L.n):
            uppers = [z for z in range(L.n) if L.leq[x, z] and L.leq[y, z]]
            least = [u for u in uppers
                     if all(L.leq[u, v] for v in uppers)]
            assert len(least) == 1
            assert L.join[x, y] == least[0]


@given(closure_lattices())
def test_join_tables_are_least_upper_bounds(L):
    _join_table_oracle(L)


@given(closure_lattices())
def test_meet_is_join_in_the_dual(L):
    D = latq.dual(L)
    assert np.array_equal(D.leq, L.leq.T)
    assert np.array_equal(D.join, L.meet)
    assert np.array_equal(D.meet, L.join)
    assert D.bottom == L.top and D.top == L.bottom
    DD = latq.dual(D)
    assert np.array_equal(DD.leq, L.leq)


def _pair_loop(leq):
    """(join, meet) of an order matrix by a plain loop over the pairs, or
    the message naming the first pair (i, j >= i) in row-major order, join
    table first, whose common bounds are no principal up- or down-set."""
    n = len(leq)
    tables = []
    for what, order in (("join", leq), ("meet", leq.T)):
        bounds = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                                 "little") for row in order]
        element = {b: k for k, b in enumerate(bounds)}
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                k = element.get(bounds[i] & bounds[j])
                if k is None:
                    return f"elements {i} and {j} have no {what}"
                table[i][j] = table[j][i] = k
        tables.append(np.array(table))
    return tuple(tables)


def _assert_tables_match_the_pair_loop(leq):
    # through a fresh poset, so a dual order is built, not transposed
    L = latq.build_lattice(latq.Poset(leq))
    join, meet = _pair_loop(L.leq)
    assert np.array_equal(L.join, join) and np.array_equal(L.meet, meet)
    assert L.leq[L.bottom].all() and L.leq[:, L.top].all()


def test_tables_match_the_pair_loop_on_both_corpora(
        corpus, perfbench_workloads):
    # the built-ins and verify_large's carriers, each with its dual order
    for L in list(corpus) + perfbench_workloads.large_corpus(latq):
        _assert_tables_match_the_pair_loop(L.leq)
        _assert_tables_match_the_pair_loop(L.leq.T)


@pytest.mark.parametrize("n", [65, 66, 300, latq.lattice.MAX_ELEMENTS])
def test_tables_match_the_pair_loop_on_long_chains(n):
    # n - 1 join-irreducibles: one full code word at 65, several past it
    leq = np.triu(np.ones((n, n), dtype=bool))
    _assert_tables_match_the_pair_loop(leq)
    _assert_tables_match_the_pair_loop(leq.T)


def test_tables_match_the_pair_loop_on_homset_lattices(corpus):
    built = 0
    for L in corpus:
        try:
            Q = latq.quantale.enumerate_homset(L, L)
        except latq.CapExceeded:
            continue
        if len(Q) < latq.lattice.MAX_ELEMENTS:
            _assert_tables_match_the_pair_loop(
                latq.quantale.homset_lattice(Q).leq)
            built += 1
    assert built == 54


@given(closure_lattices())
def test_tables_match_the_pair_loop_on_closure_lattices(L):
    _assert_tables_match_the_pair_loop(L.leq)
    _assert_tables_match_the_pair_loop(L.leq.T)


@st.composite
def relabelled_posets(draw):
    """A random order on up to 10 elements, often with a bottom and a top
    added, under a random labelling."""
    n = draw(st.integers(1, 10))
    leq = np.eye(n, dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        leq[i, j] = draw(st.booleans())
    if n > 1 and draw(st.booleans()):
        leq[0] = leq[:, n - 1] = True
    for k in range(n):
        for i in range(n):
            if leq[i, k]:
                leq[i] |= leq[k]
    perm = draw(st.permutations(range(n)))
    return latq.Poset(leq[np.ix_(perm, perm)])


@given(relabelled_posets())
# the join lookup for 1 and 2 lands on an upper bound of both that is not
# least; for 1 and 3, on an element with as many upper bounds as the pair
# has common ones, but not above both
@example(latq.build_poset(10, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                               (3, 6), (4, 5), (4, 6), (5, 7), (5, 8), (6, 7),
                               (6, 8), (7, 9), (8, 9)]))
@example(latq.build_poset(9, [(0, 1), (0, 3), (1, 2), (1, 5), (2, 7), (3, 4),
                              (3, 7), (4, 6), (5, 6), (6, 8), (7, 8)]))
def test_build_lattice_names_the_pair_the_loop_names(p):
    expected = _pair_loop(p.leq)
    if isinstance(expected, str):
        with pytest.raises(latq.NotALattice) as info:
            latq.build_lattice(p)
        assert str(info.value) == expected
    else:
        L = latq.build_lattice(p)
        assert np.array_equal(L.join, expected[0])
        assert np.array_equal(L.meet, expected[1])


def test_non_lattice_is_named_after_a_code_collision():
    # a chain with a second maximal element over n - 3: no meet-irreducible
    # lies above n - 3, n - 2 or n - 1, so the three share the empty code and
    # the join lookup misses on about 2n pairs that have a join, all of them
    # before the one pair that has none
    n = latq.lattice.MAX_ELEMENTS
    covers = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    with pytest.raises(latq.NotALattice,
                       match=f"^elements {n - 2} and {n - 1} have no join$"):
        latq.build_lattice(latq.build_poset(n, covers))


def test_sup_inf_empty_folds(zoo):
    for L in zoo.values():
        assert L.sup([]) == L.bottom
        assert L.inf([]) == L.top
        assert L.sup(range(L.n)) == L.top
        assert L.inf(range(L.n)) == L.bottom


def test_generators_fixtures(zoo):
    assert [zoo[k].n for k in ("c1", "c2", "c3", "c4")] == [1, 2, 3, 4]
    assert zoo["b2"].n == 4 and zoo["b3"].n == 8
    assert zoo["m3"].n == 5 and zoo["n5"].n == 5
    assert zoo["p23"].n == 6
    assert zoo["m3"].name == "m3"
    assert latq.is_chain(zoo["c4"]) and not latq.is_chain(zoo["b2"])
    for k in ("c1", "c2", "c3", "c4", "b2", "b3", "p23"):
        assert zoo[k].is_distributive, k
    assert not zoo["m3"].is_distributive
    assert not zoo["n5"].is_distributive


def test_generator_caps_and_validation():
    with pytest.raises(latq.TooLarge):
        latq.generate(latq.GeneratorSpec("chain", n=21))
    with pytest.raises(latq.TooLarge):
        latq.generate(latq.GeneratorSpec("boolean", k=5))
    with pytest.raises(ValueError, match=r"^chain needs n$"):
        latq.generate(latq.GeneratorSpec("chain"))
    with pytest.raises(ValueError, match=r"^boolean needs k$"):
        latq.generate(latq.GeneratorSpec("boolean"))
    for spec in (latq.GeneratorSpec("product", a=2),
                 latq.GeneratorSpec("product", b=2)):
        with pytest.raises(ValueError, match=r"^product needs a and b$"):
            latq.generate(spec)
    for spec in (latq.GeneratorSpec("random", seed=0),
                 latq.GeneratorSpec("random", n=4)):
        with pytest.raises(ValueError, match=r"^random needs seed and n$"):
            latq.generate(spec)
    with pytest.raises(ValueError,
                       match=r"^unknown generator kind 'nonsense'$"):
        latq.generate(latq.GeneratorSpec("nonsense"))


def test_join_irreducibles(zoo):
    # exactly one lower cover, checked against a cover-count oracle
    for L in zoo.values():
        covers = list(L.poset.covers)
        expected = [x for x in range(L.n)
                    if sum(1 for (a, b) in covers if b == x) == 1]
        assert list(L.join_irreducibles) == expected
    assert list(zoo["c4"].join_irreducibles) == [1, 2, 3]
    assert list(zoo["b2"].join_irreducibles) == [1, 2]
    assert list(zoo["m3"].join_irreducibles) == [1, 2, 3]


def test_distributivity_witness_replays(zoo):
    for name in ("m3", "n5"):
        L = zoo[name]
        w = latq.distributivity_witness(L)
        assert w is not None
        x, y, z = w
        lhs = L.meet[x, L.join[y, z]]
        rhs = L.join[L.meet[x, y], L.meet[x, z]]
        assert lhs != rhs
    assert latq.distributivity_witness(zoo["b3"]) is None


def test_binding_pairs_decide_distributivity(corpus, perfbench_workloads):
    # the built-ins, and c12xc12 with the twelve random closure lattices of
    # perfbench's verify_large corpus, each with its dual
    large = [L for L in perfbench_workloads.large_corpus(latq)
             if L.name == "c12xc12" or L.name.startswith("r")]
    carriers = list(corpus) + large
    verdicts = []
    for L in carriers + [L.op for L in carriers]:
        distributive = latq.distributivity_witness(L) is None
        assert L.is_distributive == distributive, L.name
        assert (len(L.interior_constraints[0]) == 0) == distributive, L.name
        verdicts.append(distributive)
    assert len(verdicts) == 2 * (86 + 13)
    assert 0 < sum(verdicts) < len(verdicts)


@given(closure_lattices())
def test_binding_pairs_agree_with_the_triple_scan(L):
    for K in (L, L.op):
        assert K.is_distributive == (latq.distributivity_witness(K) is None)


def test_binding_pairs_against_their_definition(corpus):
    # x, y bind when a join-irreducible below x v y is below neither
    for L in corpus:
        if L.n > 16:
            continue
        J = L.join_irreducibles
        want = {(x, y) for x in range(L.n) for y in range(x + 1, L.n)
                if not L.leq[x, y] and not L.leq[y, x]
                and any(L.leq[j, L.join[x, y]] and not L.leq[j, x]
                        and not L.leq[j, y] for j in J)}
        ix, iy, ij = L.interior_constraints
        assert set(zip(ix.tolist(), iy.tolist())) == want, L.name
        assert (ij == L.join[ix, iy]).all() and (np.diff(ij) >= 0).all()


def _assert_minimal_binding_pairs_match_their_definition(L):
    # a binding pair is kept unless another pair with its join lies below
    # it in the product order, in either orientation: an unordered pair
    # {a, b} below {x, y} has a <= x and b <= y for one of its two
    # orderings.  Every binding pair lies above a kept one with its join.
    down = [np.flatnonzero(L.leq[:, x]) for x in range(L.n)]
    ix, iy, ij = L.interior_constraints
    want = set()
    for x, y, z in zip(ix.tolist(), iy.tolist(), ij.tolist()):
        if (L.join[np.ix_(down[x], down[y])] == z).sum() == 1:  # (x, y)
            want.add((x, y))
    kx, ky, kz = L.minimal_binding_pairs
    assert set(zip(kx.tolist(), ky.tolist())) == want, L.name
    assert len(kx) == len(want) and (kz == L.join[kx, ky]).all()
    assert (np.diff(kz) >= 0).all()
    for x, y, z in zip(ix.tolist(), iy.tolist(), ij.tolist()):
        a, b = kx[kz == z], ky[kz == z]
        assert ((L.leq[a, x] & L.leq[b, y])
                | (L.leq[b, x] & L.leq[a, y])).any(), (L.name, x, y)


def test_minimal_binding_pairs_against_their_definition(
        corpus, perfbench_workloads):
    for L in list(corpus) + perfbench_workloads.large_corpus(latq):
        _assert_minimal_binding_pairs_match_their_definition(L)
        _assert_minimal_binding_pairs_match_their_definition(L.op)


@given(closure_lattices())
def test_minimal_binding_pairs_against_their_definition_on_closures(L):
    _assert_minimal_binding_pairs_match_their_definition(L)
    _assert_minimal_binding_pairs_match_their_definition(L.op)


def test_is_distributive_does_not_run_the_triple_scan(monkeypatch):
    def refuse(L):
        raise AssertionError("distributivity_witness was called")

    monkeypatch.setattr(latq.lattice, "distributivity_witness", refuse)
    g = latq.GeneratorSpec
    m3, n5 = latq.generate(g("m3")), latq.generate(g("n5"))
    b3 = latq.generate(g("boolean", k=3))
    assert not m3.is_distributive and not n5.op.is_distributive
    assert b3.is_distributive and b3.op.is_distributive


def test_completely_join_primes_against_subset_oracle(zoo):
    for name in ("c1", "c2", "c3", "b2", "m3", "n5", "p23"):
        L = zoo[name]
        assert latq.completely_join_primes(L) == oracles.join_primes(L), name


def test_join_primes_fixtures(zoo):
    assert latq.completely_join_primes(zoo["b2"]) == {1, 2}
    assert latq.completely_join_primes(zoo["m3"]) == set()
    assert latq.completely_join_primes(zoo["n5"]) == {1, 2}
    assert latq.completely_join_primes(zoo["c3"]) == {1, 2}
    assert latq.is_smooth(zoo["m3"])
    assert not latq.is_smooth(zoo["c3"])
    assert latq.is_smooth(zoo["c1"])


def test_downset_lattice_shapes():
    chain3 = latq.build_poset(3, [(0, 1), (1, 2)])
    assert latq.downset_lattice(chain3).n == 4
    anti2 = latq.build_poset(2, [])
    b2 = latq.downset_lattice(anti2)
    assert b2.n == 4
    assert b2 == latq.generate(latq.GeneratorSpec("boolean", k=2))
    with pytest.raises(latq.TooLarge):
        latq.downset_lattice(latq.build_poset(13, []))


def test_element_cap_covers_inclusion_lattices():
    # an antichain of 11 has 2 ** 11 downsets, beyond the cap
    with pytest.raises(latq.TooLarge):
        latq.downset_lattice(latq.build_poset(11, []))


def test_element_cap_covers_every_poset():
    with pytest.raises(latq.TooLarge):
        latq.Poset(np.eye(1025, dtype=bool))


def test_all_posets_counts_match_oeis_small_values():
    sizes = {}
    for p in latq.all_posets(4):
        sizes[p.n] = sizes.get(p.n, 0) + 1
    assert sizes == {1: 1, 2: 2, 3: 5, 4: 16}
    # the classes, their canonical forms and their order, which the
    # built-in corpus's d{k}_{i} names follow
    digest = hashlib.sha256(
        b"".join(p.leq.tobytes() for p in latq.all_posets(4))).hexdigest()
    assert digest == \
        "c956fa8589331dc25b43bcd26ca491f03223ec98a520a0f61c187b7cb79de8e3"


def test_downsets_of_every_small_poset_are_distributive():
    for p in latq.all_posets(4):
        D = latq.downset_lattice(p)
        assert D.is_distributive
        assert latq.distributivity_witness(D) is None


def test_random_closure_lattice_determinism():
    a = latq.generate(latq.GeneratorSpec("random", seed=9, n=6))
    b = latq.generate(latq.GeneratorSpec("random", seed=9, n=6))
    assert a == b


def test_structural_equality_ignores_names(zoo):
    b1 = latq.generate(latq.GeneratorSpec("boolean", k=1))
    assert b1 == zoo["c2"]
    assert hash(b1) == hash(zoo["c2"])
    renamed = zoo["c3"].rename("other")
    assert renamed == zoo["c3"]
    assert renamed.name == "other"


def test_product_order_is_componentwise():
    L = latq.generate(latq.GeneratorSpec("product", a=2, b=3))
    # reconstruct coordinates by counting strictly-below chains
    prims = latq.completely_join_primes(L)
    assert len(prims) == 3  # (1,0), (0,1), (0,2)
    assert latq.is_chain(latq.generate(latq.GeneratorSpec("product", a=1, b=4)))


@given(closure_lattices())
def test_closure_lattices_really_are_lattices(L):
    # construction path already validates; spot-check absorption laws
    for x in range(L.n):
        for y in range(L.n):
            assert L.meet[x, L.join[x, y]] == x
            assert L.join[x, L.meet[x, y]] == x

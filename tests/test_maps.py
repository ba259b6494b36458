import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import latq
import oracles
from latq import lattice, maps, quantale


@st.composite
def lattice_and_endomap(draw, max_lat=8):
    """Random closure-system lattice capped at max_lat elements, plus an
    arbitrary (not necessarily monotone) self-map."""
    seed = draw(st.integers(0, 3000))
    bits = draw(st.integers(1, 3))
    L = latq.generate(latq.GeneratorSpec("random", seed=seed, n=bits))
    assume(L.n <= max_lat)
    values = draw(st.lists(st.integers(0, L.n - 1),
                           min_size=L.n, max_size=L.n))
    return L, values


# ------------------------------------------------------------- validation

def test_latmap_validation(zoo):
    c3, b2 = zoo["c3"], zoo["b2"]
    with pytest.raises(latq.DomainMismatch):
        latq.LatMap(c3, c3, [0, 1])
    with pytest.raises(latq.IndexOutOfRange):
        latq.LatMap(c3, c3, [0, 1, 5])
    f = latq.LatMap(c3, b2, [0, 1, 3])
    assert f(2) == 3
    with pytest.raises(latq.IndexOutOfRange):
        f(7)


@pytest.mark.parametrize("values", [
    [0.5, 1.7, 2.2], [0.0, 1.0, 2.0], [True, False, True], ["0", "1", "2"],
    [0, 1, None],
])
def test_latmap_refuses_values_that_are_not_integers(zoo, values):
    c3 = zoo["c3"]
    with pytest.raises(latq.IndexOutOfRange, match="must be integers"):
        latq.LatMap(c3, c3, values)
    f = latq.LatMap(c3, c3, np.array([0, 1, 2], dtype=np.uint8))
    assert f.values.dtype == np.int32


def test_latmap_equality_and_order(zoo):
    c3 = zoo["c3"]
    f = latq.LatMap(c3, c3, [0, 0, 1])
    g = latq.special(c3, "o")
    assert f == g and hash(f) == hash(g)
    assert f <= latq.identity(c3)
    with pytest.raises(latq.DomainMismatch):
        f <= latq.identity(zoo["b2"])


# --------------------------------------------------------- classification

@given(lattice_and_endomap())
def test_classify_matches_loop_oracles(Lv):
    L, values = Lv
    f = latq.LatMap(L, L, values)
    cls = latq.classify(f)
    assert cls.monotone == oracles.monotone(L, L, values)
    assert cls.join_continuous == oracles.join_continuous(L, L, values)
    assert cls.meet_continuous == oracles.meet_continuous(L, L, values)
    if cls.join_continuous or cls.meet_continuous:
        assert cls.monotone


def test_classify_fixtures(zoo):
    b2 = zoo["b2"]
    top_indicator = latq.special(b2, "alpha", b2.top)
    assert top_indicator.values.tolist() == [0, 0, 0, 3]
    cls = latq.classify(top_indicator)
    assert cls.monotone and cls.meet_continuous and not cls.join_continuous
    c1 = latq.special(zoo["c3"], "c", 1)
    assert c1.values.tolist() == [0, 1, 1]
    assert latq.classify(c1).join_continuous
    ident = latq.identity(zoo["m3"])
    cls = latq.classify(ident)
    assert cls.monotone and cls.join_continuous and cls.meet_continuous


# ------------------------------------------------------------ special maps

def test_special_fixtures_on_c3(zoo):
    c3 = zoo["c3"]
    assert latq.special(c3, "o").values.tolist() == [0, 0, 1]
    assert latq.special(c3, "omega").values.tolist() == [1, 2, 2]
    assert latq.special(c3, "c", 2).values.tolist() == [0, 2, 2]
    assert latq.special(c3, "a", 1).values.tolist() == [0, 0, 2]
    assert latq.special(c3, "alpha", 1).values.tolist() == [0, 2, 2]
    assert latq.special(c3, "nu", 1).values.tolist() == [0, 0, 2]


def test_special_fixtures_on_m3_and_b2(zoo):
    m3, b2 = zoo["m3"], zoo["b2"]
    assert latq.special(m3, "o").values.tolist() == [0, 4, 4, 4, 4]
    assert latq.special(m3, "o") == latq.special(m3, "c", m3.top)
    assert latq.special(m3, "omega").values.tolist() == [0, 0, 0, 0, 4]
    assert latq.special(b2, "o").values.tolist() == [0, 2, 1, 3]
    assert latq.special(b2, "alpha", 1).values.tolist() == [0, 3, 0, 3]



def test_o_and_omega_are_built_once_per_carrier(zoo):
    # kept on the carrier, read-only, and equal to a fresh build; a renamed
    # carrier and the order dual keep their own
    for L in (zoo["c3"], zoo["m3"], zoo["n5"]):
        for kind, build in (("o", latq.raney_join),
                            ("omega", latq.raney_meet)):
            f = latq.special(L, kind)
            assert latq.special(L, kind) is f and f.dom is L
            assert not f.values.flags.writeable
            assert f == build(latq.identity(L))
            renamed = L.rename("other")
            assert latq.special(renamed, kind).dom is renamed
        assert latq.special(L.op, "o").dom is L.op

def test_special_nu_boundary_cases(zoo):
    for L in (zoo["c3"], zoo["b2"], zoo["m3"]):
        assert latq.special(L, "nu", L.bottom) == latq.identity(L)
        assert latq.special(L, "nu", L.top) == latq.special(L, "c", L.bottom)


def test_special_aliases_and_errors(zoo):
    c3 = zoo["c3"]
    with pytest.raises(latq.IndexOutOfRange):
        latq.special(c3, "c", 9)
    with pytest.raises(ValueError):
        latq.special(c3, "c")
    with pytest.raises(ValueError):
        latq.special(c3, "bogus", 0)
    with pytest.raises(ValueError, match="unknown special kind"):
        maps.special_table(c3, "o")


@pytest.mark.parametrize("kind", ["o", "omega"])
def test_special_o_and_omega_refuse_an_element(zoo, kind):
    # one map per carrier: an element given is refused, not ignored, the
    # bottom (0 on c3) included
    c3 = zoo["c3"]
    for x in (0, 1, c3.top):
        with pytest.raises(ValueError, match="takes no element"):
            latq.special(c3, kind, x)
    assert latq.special(c3, kind, None) is latq.special(c3, kind)


def test_special_tables_match_the_definitions(corpus):
    # the definitions in `special`'s docstring, at x and y, by plain loops
    define = {
        "c": lambda L, x, y: L.bottom if y == L.bottom else x,
        "a": lambda L, x, y: L.bottom if L.leq[y, x] else L.top,
        "alpha": lambda L, x, y: L.top if L.leq[x, y] else L.bottom,
        "nu": lambda L, x, y: L.bottom if L.leq[y, x] else y,
    }
    for L in corpus:
        for kind, value in define.items():
            want = [[value(L, x, y) for y in range(L.n)] for x in range(L.n)]
            table = maps.special_table(L, kind)
            assert table.dtype == np.int32
            assert table.tolist() == want, (L.name, kind)
            assert [latq.special(L, kind, x).values.tolist()
                    for x in range(L.n)] == want, (L.name, kind)


def test_special_continuity_classes(zoo):
    for L in zoo.values():
        for x in range(L.n):
            assert latq.classify(latq.special(L, "c", x)).join_continuous
            assert latq.classify(latq.special(L, "a", x)).join_continuous
            assert latq.classify(latq.special(L, "alpha", x)).meet_continuous
        assert latq.classify(latq.special(L, "o")).join_continuous
        assert latq.classify(latq.special(L, "omega")).meet_continuous
        # continuity is computed from the values, so the claims the
        # operations make about their outputs are checked by the loops
        for x in range(L.n):
            assert oracles.monotone(L, L, latq.special(L, "nu", x).values)
        rng = np.random.RandomState(L.n)
        for _ in range(10):
            f = latq.LatMap(L, L, rng.randint(0, L.n, size=L.n))
            for g in (latq.interior(f), latq.raney_join(f)):
                assert oracles.join_continuous(L, L, g.values), (L, f)
        Q = latq.enumerate_homset(L, L)
        members = Q.maps[::max(1, len(Q) // 10)]
        for f, g in zip(members, members[1:] + members[:1]):
            assert oracles.join_continuous(
                L, L, latq.big_meet([f, g]).values), (L, f, g)
            rho = latq.right_adjoint(f).values
            assert oracles.monotone(L, L, rho), (L, f)
            assert oracles.meet_continuous(L, L, rho), (L, f)


def test_nu_join_continuous_on_chains_not_on_b2(zoo):
    for L in (zoo["c3"], zoo["c4"]):
        for x in range(L.n):
            assert latq.classify(latq.special(L, "nu", x)).join_continuous
    nu1 = latq.special(zoo["b2"], "nu", 1)
    assert nu1.values.tolist() == [0, 0, 2, 3]
    assert not latq.classify(nu1).join_continuous
    assert latq.classify(nu1).monotone


# -------------------------------------------------------------- compose &c

def test_compose_fixture_and_laws(zoo):
    c3 = zoo["c3"]
    o = latq.special(c3, "o")
    c_top = latq.special(c3, "c", 2)
    assert latq.compose(c_top, o).values.tolist() == [0, 0, 2]
    ident = latq.identity(c3)
    f = latq.LatMap(c3, c3, [0, 2, 2])
    assert latq.compose(ident, f) == f
    assert latq.compose(f, ident) == f
    with pytest.raises(latq.DomainMismatch):
        latq.compose(f, latq.identity(zoo["b2"]))


@given(lattice_and_endomap())
def test_compose_matches_pointwise_oracle(Lv):
    L, values = Lv
    f = latq.LatMap(L, L, values)
    g = latq.LatMap(L, L, values[::-1])
    gf = latq.compose(g, f)
    assert gf.values.tolist() == [values[::-1][values[x]] for x in range(L.n)]


def test_pointwise_join_meet(zoo):
    c3 = zoo["c3"]
    c1 = latq.special(c3, "c", 1)
    o = latq.special(c3, "o")
    assert latq.pointwise_join([c1, o]).values.tolist() == [0, 1, 1]
    ident = latq.identity(c3)
    c_top = latq.special(c3, "c", 2)
    assert latq.pointwise_meet([ident, c_top]) == ident
    assert latq.pointwise_join([c1]) == c1
    empty_join = latq.pointwise_join([], dom=c3, cod=c3)
    assert empty_join.values.tolist() == [0, 0, 0]
    empty_meet = latq.pointwise_meet([], dom=c3, cod=c3)
    assert empty_meet.values.tolist() == [2, 2, 2]
    with pytest.raises(latq.DomainMismatch):
        latq.pointwise_join([])
    with pytest.raises(latq.DomainMismatch):
        latq.pointwise_join([c1, latq.identity(zoo["b2"])])


# ---------------------------------------------------------------- adjoints

def test_right_adjoint_fixtures(zoo):
    c3 = zoo["c3"]
    assert latq.right_adjoint(latq.special(c3, "o")) == \
        latq.special(c3, "omega")
    for L in (zoo["c3"], zoo["b2"], zoo["n5"]):
        for x in range(L.n):
            assert latq.right_adjoint(latq.special(L, "c", x)) == \
                latq.special(L, "alpha", x)
    assert latq.right_adjoint(latq.identity(c3)) == latq.identity(c3)


def test_adjoint_requires_continuity(zoo):
    b2 = zoo["b2"]
    alpha_top = latq.special(b2, "alpha", b2.top)
    with pytest.raises(latq.NotContinuous):
        latq.right_adjoint(alpha_top)
    with pytest.raises(latq.NotContinuous):
        latq.left_adjoint(latq.special(zoo["c3"], "o"))


def test_adjoints_against_oracle_on_all_jc_maps(zoo):
    for name in ("c3", "b2", "n5"):
        L = zoo[name]
        for values in oracles.jc_maps(L, L):
            f = latq.LatMap(L, L, list(values))
            rho = latq.right_adjoint(f)
            assert rho.values.tolist() == \
                list(oracles.right_adjoint(L, L, values))
            # adjunction both ways, and the round trips
            for x in range(L.n):
                for y in range(L.n):
                    assert bool(L.leq[f(x), y]) == bool(L.leq[x, rho(y)])
            assert latq.left_adjoint(rho) == f
    mc = latq.special(zoo["c3"], "omega")
    assert latq.right_adjoint(latq.left_adjoint(mc)) == mc


def test_adjoint_contravariance(zoo):
    L = zoo["b2"]
    Q = latq.enumerate_homset(L, L)
    for u in Q.maps[:8]:
        for v in Q.maps[8:]:
            lhs = latq.right_adjoint(latq.compose(u, v))
            rhs = latq.compose(latq.right_adjoint(v), latq.right_adjoint(u))
            assert lhs == rhs


# --------------------------------------------------------------- transforms

@given(lattice_and_endomap())
def test_raney_transforms_match_loop_oracle(Lv):
    L, values = Lv
    f = latq.LatMap(L, L, values)
    rj = latq.raney_join(f)
    rm = latq.raney_meet(f)
    assert rj.values.tolist() == list(oracles.raney_join(L, L, values))
    assert rm.values.tolist() == list(oracles.raney_meet(L, L, values))
    # outputs are continuous even for arbitrary inputs
    assert latq.classify(rj).join_continuous
    assert latq.classify(rm).meet_continuous


def test_raney_of_identity_is_o_and_omega(zoo, corpus):
    for L in zoo.values():
        assert latq.raney_join(latq.identity(L)) == latq.special(L, "o")
        assert latq.raney_meet(latq.identity(L)) == latq.special(L, "omega")
    # o is built by the join transform, so it is also read off its
    # definition by a plain loop
    for L in corpus:
        o = [oracles.sup(L, [t for t in range(L.n) if not L.leq[x, t]])
             for x in range(L.n)]
        assert latq.special(L, "o").values.tolist() == o, L.name


def test_raney_roundtrip_fixture_on_c3(zoo):
    c3 = zoo["c3"]
    f = latq.LatMap(c3, c3, [0, 0, 2])
    rm = latq.raney_meet(f)
    assert rm.values.tolist() == [0, 2, 2]
    assert latq.raney_join(rm) == f


def test_raney_join_right_adjoint_formula(zoo):
    # the right adjoint of a join transform: y -> meet of {z : f(z) not <= y}
    for name in ("c3", "b2", "n5"):
        L = zoo[name]
        rng = np.random.RandomState(7)
        for _ in range(20):
            values = [int(v) for v in rng.randint(0, L.n, size=L.n)]
            f = latq.LatMap(L, L, values)
            got = latq.right_adjoint(latq.raney_join(f))
            expect = [
                oracles.inf(L, [z for z in range(L.n)
                                if not L.leq[values[z], y]])
                for y in range(L.n)
            ]
            assert got.values.tolist() == expect


# ----------------------------------------------------------------- interior

def test_interior_fixtures(zoo):
    c3, b2 = zoo["c3"], zoo["b2"]
    alpha1 = latq.special(c3, "alpha", 1)
    assert latq.interior(alpha1).values.tolist() == [0, 2, 2]
    assert latq.interior(alpha1) == latq.special(c3, "a", 0)
    alpha_top = latq.special(b2, "alpha", b2.top)
    assert latq.interior(alpha_top) == latq.special(b2, "a", b2.top)
    assert latq.interior(alpha_top).values.tolist() == [0, 0, 0, 0]


def test_interior_against_brute_force_oracle(zoo):
    c3 = zoo["c3"]
    for values in oracles.all_value_arrays(c3, c3):
        f = latq.LatMap(c3, c3, list(values))
        assert latq.interior(f).values.tolist() == \
            list(oracles.greatest_jc_below(c3, c3, values))


@given(lattice_and_endomap(max_lat=4))
def test_interior_oracle_on_random_lattices(Lv):
    L, values = Lv
    f = latq.LatMap(L, L, values)
    assert latq.interior(f).values.tolist() == \
        list(oracles.greatest_jc_below(L, L, values))


def test_interior_oracle_on_non_distributive_domains(corpus, monkeypatch):
    # every lattice of at most four elements is distributive, so binding
    # pairs first act at five; the oracle's jc maps are listed once per homset
    monkeypatch.setattr(oracles, "jc_maps",
                        functools.lru_cache(maxsize=None)(oracles.jc_maps))
    named = {L.name: L for L in corpus}
    pairs = [(L, L) for L in corpus if L.n <= 5] + [
        (named[a], named[b])
        for a, b in (("n5", "m3"), ("m3", "c3"), ("b2", "n5"))]
    assert sum(not dom.is_distributive for dom, _ in pairs) == 7
    rng = np.random.RandomState(8)
    for dom, cod in pairs:
        F = np.concatenate([rng.randint(0, cod.n, size=(12, dom.n)),
                            maps.sample_monotone_maps(dom, cod, 12, rng)])
        _kernels_match_oracles(dom, cod, F.astype(np.int32), (
            (maps._batch_interior, oracles.greatest_jc_below),))


def _chaotic_interior(dom, cod, H):
    """The interior by a decreasing chaotic sweep: bottom to bottom, a meet
    down every cover edge (upper end first), and each incomparable pair's
    join value met with the join of the pair's values, until nothing
    changes.  Fixpoints are the jc maps below the start row."""
    H = np.array(H, dtype=np.int32)
    rank = {x: k for k, x in enumerate(dom.poset.toposort)}
    edges = sorted(dom.poset.covers, key=lambda e: -rank[e[0]])
    apart = [(x, y) for x, y in itertools.combinations(range(dom.n), 2)
             if not dom.leq[x, y] and not dom.leq[y, x]]
    H[:, dom.bottom] = cod.bottom
    while True:
        before = H.copy()
        for x, y in edges:
            H[:, x] = cod.meet[H[:, x], H[:, y]]
        for x, y in apart:
            z = dom.join[x, y]
            H[:, z] = cod.meet[H[:, z], cod.join[H[:, x], H[:, y]]]
        if np.array_equal(H, before):
            return H


def test_interior_matches_chaotic_sweep_up_to_thirty_elements():
    g = latq.GeneratorSpec
    carriers = [latq.generate(g("random", seed=s, n=4 + s % 4))
                for s in range(40)]
    carriers = [L for L in carriers if L.n <= 30]
    assert sum(latq.distributivity_witness(L) is not None
               for L in carriers) >= 25
    rng = np.random.RandomState(11)
    for k, dom in enumerate(carriers):
        for cod in (dom, carriers[(7 * k + 3) % len(carriers)]):
            F = np.concatenate([rng.randint(0, cod.n, size=(16, dom.n)),
                                maps.sample_monotone_maps(dom, cod, 16, rng)])
            got = maps._batch_interior(dom, cod, F)
            assert (got == _chaotic_interior(dom, cod, F)).all(), \
                (dom.name, cod.name)


def _interior_by_up_sets(dom, cod, H):
    """The interior as one fold per join-irreducible j: the meet of the
    row over the up-set of j, joined into that up-set of a bottom row,
    then the binding-pair step, until that step changes nothing."""
    ups = [np.flatnonzero(dom.leq[j]) for j in dom.join_irreducibles]
    ix, iy, ij = dom.minimal_binding_pairs
    zs, first, runs = np.unique(ij, return_index=True, return_counts=True)
    ends = np.repeat(first + runs, runs)
    hops = 2 ** np.arange((int(runs.max(initial=1)) - 1).bit_length())
    while True:
        tops = [latq.lattice._fold(cod.meet, H[:, up]) for up in ups]
        H = np.full(H.shape, cod.bottom, dtype=np.int32)
        for up, t in zip(ups, tops):
            H[:, up] = cod.join[H[:, up], t[:, None]]
        K = cod.join[H[:, ix], H[:, iy]]
        for hop in hops:
            at = np.flatnonzero(np.arange(len(ij)) + hop < ends)
            K[:, at] = cod.meet[K[:, at], K[:, at + hop]]
        K = cod.meet[H[:, zs], K[:, first]]
        if np.array_equal(K, H[:, zs]):
            return H
        H[:, zs] = K


def test_interior_sweeps_match_the_up_set_folds(corpus, perfbench_workloads):
    large = perfbench_workloads.large_corpus(latq)
    chains = [latq.build_lattice(latq.build_poset(
        n, [(i, i + 1) for i in range(n - 1)]), name=f"c{n}")
        for n in (65, 300, latq.lattice.MAX_ELEMENTS)]
    carriers = [M for L in corpus for M in (L, L.op)]
    carriers += [M for L in large for M in (L, L.op)] + chains
    assert sum(not L.is_distributive for L in carriers) == 90
    rng = np.random.RandomState(33)
    for L in carriers:
        alphas = maps.special_table(L, "alpha")
        if L.n > 64:   # the folds take about n ** 2 / 2 reads per row
            alphas = alphas[rng.choice(L.n, 16, replace=False)]
        for F in (alphas, rng.randint(0, L.n, size=(8, L.n))):
            got = maps._batch_interior(L, L, F)
            assert (got == _interior_by_up_sets(L, L, F)).all(), L.name


@given(lattice_and_endomap())
def test_interior_properties(Lv):
    L, values = Lv
    f = latq.LatMap(L, L, values)
    inner = latq.interior(f)
    assert inner <= f
    assert latq.classify(inner).join_continuous
    assert latq.interior(inner) == inner
    assert (latq.interior(f) == f) == latq.classify(f).join_continuous


def test_interior_is_monotone_in_its_argument(zoo):
    L = zoo["b2"]
    rng = np.random.RandomState(3)
    for _ in range(40):
        v = rng.randint(0, L.n, size=L.n)
        w = np.array([int(L.join[a, rng.randint(0, L.n)]) for a in v])
        fi = latq.interior(latq.LatMap(L, L, [int(a) for a in v]))
        gi = latq.interior(latq.LatMap(L, L, [int(a) for a in w]))
        assert fi <= gi


# ----------------------------------------------------------------- big_meet

def test_big_meet_fixtures(zoo):
    c3, m3 = zoo["c3"], zoo["m3"]
    ident = latq.identity(c3)
    c_top = latq.special(c3, "c", 2)
    assert latq.big_meet([ident, c_top]) == ident
    assert latq.big_meet([ident]) == ident
    im3 = latq.identity(m3)
    collapsed = latq.big_meet([im3, im3])
    assert collapsed == latq.raney_join(latq.raney_meet(im3))
    assert collapsed != im3
    assert collapsed <= im3


def test_big_meet_validation(zoo):
    b2 = zoo["b2"]
    with pytest.raises(latq.DomainMismatch):
        latq.big_meet([])
    with pytest.raises(latq.NotContinuous):
        latq.big_meet([latq.special(b2, "alpha", b2.top)])


def test_big_meet_is_lower_bound_everywhere(zoo):
    # no distributivity needed for the lower-bound half
    for name in ("c3", "b2", "m3", "n5"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        rng = np.random.RandomState(11)
        for _ in range(20):
            pick = [Q.maps[rng.randint(len(Q))] for _ in range(3)]
            low = latq.big_meet(pick)
            assert latq.classify(low).join_continuous
            for f in pick:
                assert low <= f


# ------------------------------------------------------------- enumeration

def test_all_maps_and_monotone_arrays(zoo):
    c3 = zoo["c3"]
    A = latq.all_maps_array(c3, c3)
    assert A.shape == (27, 3)
    assert len({r.tobytes() for r in A}) == 27
    M = latq.monotone_maps_array(c3, c3)
    expect = oracles.monotone_maps(c3, c3)
    assert sorted(map(tuple, M.tolist())) == sorted(expect)
    b2 = zoo["b2"]
    assert len(latq.monotone_maps_array(b2, b2)) == len(
        oracles.monotone_maps(b2, b2))


def test_map_arrays_refuse_past_the_cap_before_building(monkeypatch, zoo):
    # c3 has 3 ** 3 maps: a cap of 27 lists them, one of 26 refuses both
    c3 = zoo["c3"]
    monkeypatch.setattr(lattice, "DEFAULT_CAP", 27)
    assert len(maps.all_maps_array(c3, c3)) == 27
    assert len(maps.monotone_maps_array(c3, c3)) == 10
    monkeypatch.setattr(lattice, "DEFAULT_CAP", 26)
    for build in (maps.all_maps_array, maps.monotone_maps_array):
        with pytest.raises(latq.CapExceeded, match="27 maps exceed"):
            build(c3, c3)
    # b3 -> b3 has 8 ** 8 maps, about 1 GB as int64: refused up front
    monkeypatch.undo()
    b3 = zoo["b3"]
    for build in (maps.all_maps_array, maps.monotone_maps_array):
        tracemalloc.start()
        try:
            with pytest.raises(latq.CapExceeded, match="16777216 maps"):
                build(b3, b3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def test_sample_monotone_maps(zoo):
    L = zoo["m3"]
    rng = np.random.RandomState(0)
    S = latq.sample_monotone_maps(L, L, 100, rng)
    assert S.shape == (100, 5)
    for row in S.tolist():
        assert oracles.monotone(L, L, row)
    again = latq.sample_monotone_maps(L, L, 100, np.random.RandomState(0))
    assert np.array_equal(S, again)


@pytest.mark.parametrize("name", ["c3", "b2"])
def test_sample_monotone_maps_has_full_support(zoo, name):
    L = zoo[name]
    S = latq.sample_monotone_maps(L, L, 2000, np.random.RandomState(0))
    assert set(map(tuple, S.tolist())) == set(oracles.monotone_maps(L, L))


def test_draw_above_the_dual_stays_pointwise_below(zoo):
    for L in zoo.values():
        rng = np.random.RandomState(1)
        G = rng.randint(0, L.n, size=(300, L.n))
        F = maps._draw_above(maps._upsets(L.op), G, rng)
        assert F.shape == G.shape and L.leq[F, G].all(), L.name
        # and every element below v is drawn somewhere for v
        for v in range(L.n):
            assert set(F[G == v].tolist()) == \
                {u for u in range(L.n) if L.leq[u, v]}, (L.name, v)


# ---------------------------------------------- cross-homset transform law

def test_adjoint_bridge_across_homsets(zoo):
    # left adjoint of the meet transform == join transform of the right
    # adjoint, exhaustively on small cross homsets
    pairs = [("c2", "b2"), ("c3", "b2"), ("b2", "c3"), ("c4", "c3")]
    for a, b in pairs:
        L, M = zoo[a], zoo[b]
        for values in oracles.jc_maps(L, M):
            f = latq.LatMap(L, M, list(values))
            lhs = latq.left_adjoint(latq.raney_meet(f))
            rhs = latq.raney_join(latq.right_adjoint(f))
            assert lhs == rhs


def test_meet_side_matches_loop_oracles(corpus):
    # the meet side runs the join-side code on the order duals; compare it
    # with first definitions on every built-in carrier
    for L in corpus:
        rng = np.random.RandomState(L.n)
        assert latq.dual(L) is latq.dual(L)
        assert latq.dual(latq.dual(L)) is L
        om = [oracles.inf(L, [t for t in range(L.n) if not L.leq[t, u]])
              for u in range(L.n)]
        assert latq.special(L, "omega").values.tolist() == om
        for x in range(L.n):
            alpha = [L.top if L.leq[x, u] else L.bottom for u in range(L.n)]
            assert latq.special(L, "alpha", x).values.tolist() == alpha
        for _ in range(3):
            v = rng.randint(0, L.n, size=L.n).tolist()
            w = rng.randint(0, L.n, size=L.n).tolist()
            f = latq.LatMap(L, L, v)
            assert latq.is_meet_continuous(f) == \
                oracles.meet_continuous(L, L, v)
            assert latq.pointwise_meet([f, latq.LatMap(L, L, w)]).values \
                .tolist() == [int(L.meet[a, b]) for a, b in zip(v, w)]
            rm = latq.raney_meet(f)
            assert rm.values.tolist() == list(oracles.raney_meet(L, L, v))
            assert latq.left_adjoint(rm).values.tolist() == \
                list(oracles.left_adjoint(L, L, rm.values.tolist()))
        assert latq.raney_meet_criterion(L).holds == L.is_distributive


# --------------------------------------- kernels on repeated rows, row ranks

KERNEL_ORACLES = (
    (maps._batch_raney_join, oracles.raney_join),
    (maps._batch_raney_meet, oracles.raney_meet),
    (maps._batch_right_adjoint, oracles.right_adjoint),
    (maps._batch_left_adjoint, oracles.left_adjoint),
    (maps._batch_interior, oracles.greatest_jc_below),
)


def _kernels_match_oracles(dom, cod, F, kernels=KERNEL_ORACLES):
    """Each kernel on the whole matrix F against its oracle, row by row."""
    for kernel, oracle in kernels:
        got = kernel(dom, cod, F)
        assert got.ndim == 2 and len(got) == len(F), kernel.__name__
        want: dict[tuple, list] = {}
        for row, out in zip(map(tuple, F.tolist()), got.tolist()):
            if row not in want:
                want[row] = list(oracle(dom, cod, row))
            assert out == want[row], (kernel.__name__, row)


@st.composite
def lattice_and_repeated_rows(draw, max_lat=4):
    """A random lattice and a value matrix whose rows come from a pool of at
    most four rows, with the first row repeated at the end."""
    L, _ = draw(lattice_and_endomap(max_lat))
    row = st.lists(st.integers(0, L.n - 1), min_size=L.n, max_size=L.n)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=1, max_size=12))
    return L, np.array([pool[i] for i in picks + picks[:1]], dtype=np.int32)


@given(lattice_and_repeated_rows())
def test_deduplicated_kernels_match_loop_oracles(LF):
    L, F = LF
    _kernels_match_oracles(L, L, F)


def _ranks_by_loop(rows, base):
    """np.unique's index and inverse over the codes sum of row[x] * base ** x
    as Python integers, which have no width limit."""
    codes = np.array([sum(int(v) * base ** x for x, v in enumerate(row))
                      for row in rows], dtype=object)
    _, first, ids = np.unique(codes, return_index=True, return_inverse=True)
    return first, ids


@pytest.mark.parametrize("base, width, sizes", [
    (3, 4, (100,)),               # one block
    (3, 6, (40, 0, 60)),          # an empty block between two
    (2, 8, (30, 20)),             # bool rows
    (30, 30, (9, 7, 5)),          # rows of 30 log2 30 > 62 bits
    (4, 31, (3, 3)),              # 62 bits exactly
])
def test_rank_rows_ranks_several_blocks_as_one(base, width, sizes):
    rng = np.random.RandomState(base + width)
    pool = rng.randint(0, base, size=(7, width))
    blocks = [pool[rng.randint(0, 7, size=k)].astype(np.int32)
              for k in sizes]
    if base == 2:
        blocks = [F.astype(bool) for F in blocks]
    rows = np.concatenate(blocks)
    first, ids = maps._rank_rows(base, *blocks)
    want_first, want_ids = _ranks_by_loop(rows, base)
    assert first.tolist() == want_first.tolist()
    assert [r.tolist() for r in ids] == \
        [r.tolist() for r in np.split(want_ids, np.cumsum(sizes)[:-1])]
    # equal rows, in one block or in two, get equal ranks
    assert (rows[first][np.concatenate(ids)] == rows).all()


def test_rank_rows_refuses_entries_too_wide_to_code_exactly():
    # over 4 rows a code may take 60 bits of int64, `_dedup` keeping 3 for
    # the position: one column of base 2 ** 61 is past them, 2 ** 60 fits
    with pytest.raises(latq.CapExceeded):
        maps._rank_rows(2 ** 61, np.zeros((4, 1), np.int64))
    F = np.array([[2 ** 60 - 1], [0], [2 ** 60 - 1], [5]], np.int64)
    first, (ids,) = maps._rank_rows(2 ** 60, F)
    assert first.tolist() == [1, 3, 0] and ids.tolist() == [2, 0, 2, 1]


@pytest.mark.parametrize("P_shape, Q_shape, base", [
    ((6, 4), (6, 5), 3),          # square
    ((5, 3), (8, 4), 7),          # rectangular
    ((0, 3), (4, 2), 3),          # no rows in P
    ((4, 3), (0, 2), 3),          # no rows in Q
    ((9, 30), (7, 30), 30),       # rows of 30 log2 30 > 62 bits
    ((2, 6), (3, 6), 1024),       # 60 bits a row, one run past 53 bits
    ((5, 6), (6, 6), 1024),       # 60 bits a row, two runs
    ((1, 1), (1, 1), 3),          # one composite of one column
])
def test_composite_ids_match_double_loop(P_shape, Q_shape, base):
    rng = np.random.RandomState(base + P_shape[0])
    pool = rng.randint(0, base, size=(3, P_shape[1]))
    P = pool[rng.randint(0, 3, size=P_shape[0])]       # repeated composites
    Q = rng.randint(0, P_shape[1], size=Q_shape)
    rows = [P[a][Q[b]] for a in range(len(P)) for b in range(len(Q))]
    first, ids = maps._composite_ids(P, Q, base)
    want_first, want_ids = _ranks_by_loop(rows, base)
    assert first.tolist() == want_first.tolist()
    assert ids.tolist() == want_ids.tolist()


def test_composite_ids_past_62_bits_on_a_rectangular_homset(corpus):
    # the composites f . rho(h), r19 -> r19, over Q(c3, r19): 23 columns
    # below 23 need 104 bits, so the codes are built from ranked runs
    named = {L.name: L for L in corpus}
    L, M = named["c3"], named["r19"]
    Q = latq.enumerate_homset(L, M)
    rows = [f[r] for f in Q.matrix for r in Q.rho]
    assert M.n * np.log2(M.n) > 62 and len(rows) == len(Q) ** 2
    first, ids = maps._composite_ids(Q.matrix, Q.rho, M.n)
    want_first, want_ids = _ranks_by_loop(rows, M.n)
    assert first.tolist() == want_first.tolist()
    assert ids.tolist() == want_ids.tolist()
    assert 1 < len(first) < len(rows)


@pytest.mark.parametrize("N, top", [(0, 5), (1, 5), (2, 1), (1000, 50),
                                    (5000, 1 << 40), (64, 1), (50_000, 1),
                                    (50_000, 1_000), (50_000, 1 << 40)])
def test_dedup_equals_np_unique(N, top):
    # top 1 makes every code equal
    codes = np.random.RandomState(N).randint(0, top, size=N, dtype=np.int64)
    got = maps._dedup(codes)
    want = np.unique(codes, return_index=True, return_inverse=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_kernels_match_oracles_from_zero_rows_up(zoo):
    c1, c3, b2 = zoo["c1"], zoo["c3"], zoo["b2"]
    for L in (c3, b2):
        _kernels_match_oracles(L, L, np.zeros((0, L.n), dtype=np.int32))
        one = np.full((1, L.n), L.top, dtype=np.int32)
        _kernels_match_oracles(L, L, one)
    # over a one-element codomain every row is the same
    for dom in (c1, c3, b2):
        _kernels_match_oracles(dom, c1, np.zeros((5, dom.n), dtype=np.int32))
    # every map c3 -> c3, twice over
    A = maps.all_maps_array(c3, c3)
    _kernels_match_oracles(c3, c3, np.concatenate([A, A[::-1]]))


def test_kernels_match_oracles_on_rows_of_62_bits_or_more():
    c20 = latq.generate(latq.GeneratorSpec("chain", n=20))  # 20 log2 20 > 62
    rng = np.random.RandomState(5)
    F = rng.randint(0, c20.n, size=(6, c20.n)).astype(np.int32)
    F = np.concatenate([F, F[::2]])
    _kernels_match_oracles(c20, c20, F, KERNEL_ORACLES[:4])
    # on a chain the greatest jc map below h is x -> meet of h above x,
    # with bottom to bottom
    for row, out in zip(F.tolist(), maps._batch_interior(c20, c20, F).tolist()):
        want = [oracles.inf(c20, [row[y] for y in range(c20.n)
                                  if c20.leq[x, y]]) for x in range(c20.n)]
        want[c20.bottom] = c20.bottom
        assert out == want


# ------------------------------- Raney's transforms over the join-irreducibles

RANEY_ORACLES = KERNEL_ORACLES[:2]


def test_raney_kernels_match_oracles_on_both_corpora(corpus, large_corpus):
    # seeded rows, monotone or not, on each built-in and its dual, into
    # itself and into the next carrier, and on verify_large's carriers;
    # the meet kernel reads the tables of its domain's dual
    rng = np.random.RandomState(35)
    for L, M in zip(corpus, corpus[1:] + corpus[:1]):
        for dom, cod in ((L, L), (L.op, L.op), (L, M)):
            F = rng.randint(0, cod.n, size=(4, dom.n)).astype(np.int32)
            _kernels_match_oracles(dom, cod, F, RANEY_ORACLES)
    for L in large_corpus:
        F = rng.randint(0, L.n, size=(2, L.n)).astype(np.int32)
        _kernels_match_oracles(L, L, F, RANEY_ORACLES)


def test_raney_join_from_zero_rows_past_its_chunk_budget(
        zoo, large_corpus, monkeypatch):
    L = {M.name: M for M in large_corpus}["c20xc20"]
    for dom in (zoo["c1"], zoo["b2"], L):
        out = maps._batch_raney_join(dom, dom, np.zeros((0, dom.n), np.int32))
        assert out.shape == (0, dom.n) and out.dtype == np.int32
    # rows enough for three blocks of each gather, under a 1 MB budget
    # that keeps the blocks to 17 rows
    monkeypatch.setattr(lattice, "_CHUNK_BYTES", 1 << 20)
    T, P = maps._raney_tables(L)
    rows = lattice._CHUNK_BYTES // (4 * min(T.size, P.size))
    F = np.random.RandomState(7).randint(0, L.n, size=(2 * rows + 3, L.n))
    whole = maps._batch_raney_join(L, L, F)
    alone = [maps._batch_raney_join(L, L, F[k:k + 1]) for k in range(len(F))]
    assert (whole == np.concatenate(alone)).all()
    edges = [0, rows - 1, rows, len(F) - 1]
    _kernels_match_oracles(L, L, F[edges], RANEY_ORACLES[:1])
    # a budget below one row's gather: a row, and a row of T or P, at a time
    monkeypatch.setattr(lattice, "_CHUNK_BYTES", 1)
    part = maps._batch_raney_join(L, L, F[:rows + 1])
    assert (part == whole[:rows + 1]).all()
    for dom in zoo.values():
        G = np.random.RandomState(dom.n).randint(0, dom.n, size=(5, dom.n))
        _kernels_match_oracles(dom, dom, G, RANEY_ORACLES)


# `o` and `omega` on the longest chain `MAX_ELEMENTS` admits, where J has
# n - 1 elements, tables included: about 0.08 s and a 17 MB tracemalloc
# peak on a 2-vCPU machine, which keeps 4 MB of tables per side
CHAIN_SPECIAL_BUDGET_S = 2.0
CHAIN_SPECIAL_PEAK_MB = 32


def test_o_and_omega_on_the_longest_chain_within_their_budget():
    n = latq.lattice.MAX_ELEMENTS
    chain = latq.build_lattice(
        latq.build_poset(n, [(i, i + 1) for i in range(n - 1)]), name="c")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        o, omega = latq.special(chain, "o"), latq.special(chain, "omega")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    # o(t) is the element below t, omega(t) the one above, ends fixed
    assert o.values.tolist() == [0, *range(n - 1)]
    assert omega.values.tolist() == [*range(1, n), n - 1]
    assert elapsed < CHAIN_SPECIAL_BUDGET_S, elapsed
    assert peak < CHAIN_SPECIAL_PEAK_MB, peak


# T2 on the longest chain `MAX_ELEMENTS` admits, the table build included;
# about 0.1 s with one BLAS thread on a 2-vCPU machine
CHAIN_T2_BUDGET_S = 3.0


def test_t2_on_the_longest_chain_within_its_budget():
    n = latq.lattice.MAX_ELEMENTS
    chain = latq.build_lattice(
        latq.build_poset(n, [(i, i + 1) for i in range(n - 1)]), name="c")
    start = time.perf_counter()
    report = latq.run_suite(corpus=[chain], checks=["T2"])
    elapsed = time.perf_counter() - start
    assert report.results["T2"]["c"].status == "pass"
    assert elapsed < CHAIN_T2_BUDGET_S, elapsed
    # the closed form on a chain: x -> meet of h above x, which here is
    # the least of h over x..n-1, with bottom to bottom
    alphas = maps.special_table(chain, "alpha")
    want = np.minimum.accumulate(alphas[:, ::-1], axis=1)[:, ::-1]
    want[:, chain.bottom] = chain.bottom
    assert (maps._batch_interior(chain, chain, alphas) == want).all()


def test_kernels_rank_nothing_and_composites_reach_them_distinct(
        zoo, monkeypatch):
    # the kernels run on the rows they are given, repeats and all; the
    # sweeps rank composites once, in `quantale._on_composites`
    L = zoo["b2"]
    A = maps.all_maps_array(L, L)
    F = np.concatenate([A, A, A[::-1]])

    def refuse(*args):
        raise AssertionError("a kernel ranked its rows")

    with monkeypatch.context() as m:
        m.setattr(maps, "_rank_rows", refuse)
        m.setattr(maps, "_dedup", refuse)
        _kernels_match_oracles(L, L, F)
    seen = []

    def spy(dom, cod, rows):
        seen.append(rows)
        return maps._batch_interior(dom, cod, rows)

    Q = latq.enumerate_homset(L, L)
    _, ids = quantale._on_composites(spy, L, Q.rho, Q.matrix)
    (rows,) = seen
    assert len(np.unique(rows, axis=0)) == len(rows) < len(Q) ** 2
    assert ids.shape == (len(Q), len(Q))
    for a in range(len(Q)):
        for b in range(len(Q)):
            assert (rows[ids[a, b]] == Q.rho[a][Q.matrix[b]]).all()

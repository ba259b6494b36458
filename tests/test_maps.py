import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import latq
import oracles
from latq import maps, quantale


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


@pytest.mark.parametrize("A, B, n, m", [
    (5, 5, 4, 3), (7, 3, 2, 6), (2, 9, 5, 1), (0, 4, 3, 3), (4, 0, 3, 3),
    (0, 0, 2, 2),
])
def test_pair_kernel_matches_double_loop(A, B, n, m):
    rng = np.random.RandomState(A * 100 + B * 10 + n)
    W = rng.randint(-4, 5, size=(A, n, m)).astype(np.float64)
    F = rng.randint(0, m, size=(B, n))
    want = np.zeros((A, B))
    for a in range(A):
        for b in range(B):
            want[a, b] = sum(W[a, x, F[b, x]] for x in range(n))
    got = maps._pair_kernel(W, F)
    assert got.shape == (A, B) and np.array_equal(got, want)


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


@pytest.mark.parametrize("P_shape, Q_shape, base", [
    ((6, 4), (6, 5), 3),          # square
    ((5, 3), (8, 4), 7),          # rectangular
    ((0, 3), (4, 2), 3),          # no rows in P
    ((4, 3), (0, 2), 3),          # no rows in Q
    ((9, 30), (7, 30), 30),       # rows of 30 log2 30 > 62 bits
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
                                    (5000, 1 << 40)])
def test_dedup_equals_np_unique(N, top):
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

import hashlib
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import latq
import oracles
from latq import lattice, quantale
from latq.cd import first_failing_law
from latq.errors import HomsetTooLarge, NotALattice, NotContinuous
from latq.lattice import Poset, build_lattice
from latq.suite import CENTER_HOMSET_CAP, PAIR_HOMSET_CAP


# ------------------------------------------------------------- enumeration

def test_homset_counts(zoo):
    expect = {"c2": 2, "c3": 6, "b2": 16, "m3": 50, "n5": None}
    assert len(latq.enumerate_homset(zoo["c2"], zoo["c2"])) == 2
    assert len(latq.enumerate_homset(zoo["c3"], zoo["c3"])) == 6
    assert len(latq.enumerate_homset(zoo["b2"], zoo["b2"])) == 16
    assert len(latq.enumerate_homset(zoo["m3"], zoo["m3"])) == 50
    assert len(latq.enumerate_homset(zoo["b3"], zoo["b3"])) == 512


def _endo_homset(L, cap=quantale.DEFAULT_CAP):
    """L's endo homset, or None where enumerate_homset refuses it."""
    try:
        return latq.enumerate_homset(L, L, cap)
    except latq.CapExceeded:
        return None


def _jc_keys(dom, cod):
    return {np.asarray(v, dtype=np.int32).tobytes()
            for v in oracles.jc_maps(dom, cod)}


def test_homset_is_exactly_the_jc_maps(corpus):
    for L in corpus:
        if L.n <= 5:
            got = {f.key for f in latq.enumerate_homset(L, L).maps}
            assert got == _jc_keys(L, L), L.name


def test_homset_cross_lattices(zoo, corpus):
    # distinct carriers up to 4 elements and their duals (whose labels run
    # against the order) as codomains; as domains also the five-element
    # non-distributive carriers and their duals, where the frontier prunes
    small = list(dict.fromkeys(L for L in corpus if L.n <= 4))
    small += [L.op for L in small]
    doms = small + [K for L in corpus if L.n == 5 and not L.is_distributive
                    for K in (L, L.op)]
    named = [(zoo[a], zoo[b])
             for a, b in (("c2", "b2"), ("b2", "c3"), ("c4", "m3"))]
    for dom, cod in named + list(itertools.product(doms, small)):
        got = {f.key for f in latq.enumerate_homset(dom, cod).maps}
        assert got == _jc_keys(dom, cod), (dom, cod)


def test_homset_rows_ascend_on_the_join_irreducibles(corpus):
    # the order that `position` and first-failure witnesses depend on
    for L in corpus:
        Q = _endo_homset(L)
        if Q is None:
            continue
        rows = Q.matrix[:, list(L.join_irreducibles)].tolist()
        assert all(a < b for a, b in zip(rows, rows[1:])), L.name


def test_endo_homset_bytes_are_pinned(corpus):
    # every built-in endo homset within DEFAULT_CAP, its matrix bytes
    # concatenated in corpus order: no row may be dropped, added or moved
    digest, enumerated = hashlib.sha256(), 0
    for L in corpus:
        try:
            Q = latq.enumerate_homset(L, L)
        except latq.CapExceeded:
            continue
        digest.update(Q.matrix.tobytes())
        enumerated += 1
    assert enumerated == 74
    assert digest.hexdigest() == (
        "81e0ceca4504cbaf517c2ad50bcfafd5f523301aa36b94418e7e2c8839690b95")


def _relabelled_grid(side: int, top: bool, seed: int):
    """The side x side grid of pairs, with a new top above it when top is
    set, its labels a seeded permutation."""
    n = side * side + top
    label = np.random.RandomState(seed).permutation(n)
    covers = [(x, x + 1) for x in range(side * side) if (x + 1) % side]
    covers += [(x, x + side) for x in range(side * side - side)]
    covers += [(n - 2, n - 1)] * top
    return build_lattice(latq.build_poset(
        n, [(label[a], label[b]) for a, b in covers]))


@pytest.mark.parametrize("top", [False, True])
def test_homset_on_codomains_past_one_byte(zoo, top):
    # 256 labels fit the one-byte frontier, 257 need two; bottom and top
    # sit at seeded labels, so the values span the whole range
    K = _relabelled_grid(16, top, seed=256 + top)
    assert K.n == 256 + top and K.bottom != 0
    Q = latq.enumerate_homset(zoo["c2"], K)
    assert Q.matrix.dtype == np.int32
    assert Q.matrix.tolist() == [list(v) for v in oracles.jc_maps(zoo["c2"], K)]
    assert Q.matrix[:, 1].max() == K.n - 1


def test_homset_cap(zoo):
    with pytest.raises(latq.CapExceeded):
        latq.enumerate_homset(zoo["b3"], zoo["b3"], cap=100)


def test_one_row_blocks_give_the_one_block_matrix(monkeypatch, corpus):
    # at a budget of one byte every block is one row, so every call with
    # two or more members splits at every level; each pair of distinct
    # built-ins the pair cap admits, against one block per level, and
    # against the plain-loop oracle on carriers of at most four elements
    carriers = list(dict.fromkeys(corpus))
    pairs = list(itertools.product(carriers, repeat=2))

    def matrices(budget):
        monkeypatch.setattr(lattice, "_CHUNK_BYTES", budget)
        out = {}
        for dom, cod in pairs:
            try:
                out[dom, cod] = latq.enumerate_homset(
                    dom, cod, PAIR_HOMSET_CAP).matrix
            except latq.CapExceeded:
                pass
        return out

    whole, split = matrices(1 << 62), matrices(1)
    assert whole.keys() == split.keys() and len(whole) == 1025
    for (dom, cod), F in whole.items():
        assert np.array_equal(split[dom, cod], F), (dom, cod)
        if dom.n <= 4 and cod.n <= 4:
            assert F.tolist() == [list(v) for v in oracles.jc_maps(dom, cod)]


@pytest.mark.parametrize("name", ["b3", "n5"])
def test_a_limit_of_the_count_admits_and_one_less_refuses(zoo, name):
    # b3 is distributive (512 members), n5 is not (its rows are filtered
    # at the last level, and checked against the plain-loop oracle): a
    # limit sizes the blocks, and refuses only past the count
    L = zoo[name]
    Q = latq.enumerate_homset(L, L)
    if L.n <= 5:
        assert Q.matrix.tolist() == [list(v) for v in oracles.jc_maps(L, L)]
    at = latq.enumerate_homset(L, L, limit=len(Q))
    assert np.array_equal(at.matrix, Q.matrix)
    with pytest.raises(HomsetTooLarge) as refused:
        latq.enumerate_homset(L, L, limit=len(Q) - 1)
    assert str(refused.value) == f"homset too large (|Q| > {len(Q) - 1})"
    assert isinstance(refused.value, latq.CapExceeded)


def test_the_suites_limit_refuses_d4_0_in_under_a_megabyte(corpus):
    # d4_0 has 65,536 members, a 6 MB tracemalloc peak in full; stopped
    # past CENTER_HOMSET_CAP it peaks at about 0.45 MB
    L = next(M for M in corpus if M.name == "d4_0")
    tracemalloc.start()
    try:
        with pytest.raises(HomsetTooLarge):
            latq.enumerate_homset(L, L, limit=CENTER_HOMSET_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_homset_membership_and_lattice_closure(zoo):
    L = zoo["b2"]
    Q = latq.enumerate_homset(L, L)
    assert latq.special(L, "c", L.bottom) in Q
    assert latq.identity(L) in Q
    rng = np.random.RandomState(2)
    for _ in range(30):
        pick = [Q.maps[rng.randint(len(Q))] for _ in range(3)]
        assert latq.pointwise_join(pick) in Q
    alpha = latq.special(L, "alpha", L.top)
    assert alpha not in Q
    with pytest.raises(latq.DomainMismatch):
        Q.position(latq.identity(zoo["c3"]))


@pytest.mark.parametrize("dom, cod", [("b2", "b2"), ("m3", "m3"),
                                      ("c3", "b2"), ("n5", "c3")])
def test_homset_positions_match_a_plain_loop(zoo, dom, cod):
    # members in a shuffled order, repeated, among rows that are not
    # members, some of them join-continuous for no homset
    L, M = zoo[dom], zoo[cod]
    Q = latq.enumerate_homset(L, M)
    rng = np.random.RandomState(3)
    rows = np.concatenate([Q.matrix[rng.randint(len(Q), size=40)],
                           rng.randint(M.n, size=(40, L.n))])[
        rng.permutation(80)]
    members = Q.matrix.tolist()
    want = [members.index(r) if r in members else -1 for r in rows.tolist()]
    assert Q.positions(rows).tolist() == want
    assert 0 < want.count(-1) < 80
    # an enumeration with no members places no row
    empty = quantale.HomsetEnumeration(L, M, Q.matrix[:0])
    assert empty.positions(rows).tolist() == [-1] * 80
    f = latq.LatMap(L, M, Q.matrix[0])
    assert f not in empty
    with pytest.raises(NotContinuous):
        empty.position(f)


def test_homset_positions_past_62_bits():
    # a hand-built enumeration over c20, whose rows need 20 log2 20 > 62
    # bits; its members agree on all but their last three columns
    c20 = latq.generate(latq.GeneratorSpec("chain", n=20))
    rng = np.random.RandomState(6)
    F = np.tile(rng.randint(0, 20, size=20), (12, 1)).astype(np.int32)
    tails = rng.choice(20 ** 3, size=12, replace=False)
    F[:, -3:] = tails[:, None] // 20 ** np.arange(3) % 20
    Q = quantale.HomsetEnumeration(c20, c20, F)
    order = rng.permutation(len(Q))
    assert Q.positions(F[order]).tolist() == order.tolist()
    for k in order:
        f = latq.LatMap(c20, c20, F[k])
        assert f in Q and Q.position(f) == k
    outside = F[:1].copy()    # a tail no member has
    outside[0, -3:] = min(set(range(20 ** 3)) - set(tails)) // \
        20 ** np.arange(3) % 20
    assert Q.positions(np.concatenate([outside, F[order], outside])).tolist() \
        == [-1, *order.tolist(), -1]
    g = latq.LatMap(c20, c20, outside[0])
    assert g not in Q
    with pytest.raises(latq.NotContinuous,
                       match="^map is not join-continuous for this homset$"):
        Q.position(g)
    foreign = latq.LatMap(c20.op, c20, F[0])
    assert foreign not in Q
    with pytest.raises(latq.DomainMismatch,
                       match="^map belongs to a different homset$"):
        Q.position(foreign)


def test_quantale_composition_distributes_over_joins(zoo):
    # (f1 v f2) . g == f1.g v f2.g   and   g . (f1 v f2) == g.f1 v g.f2
    for name in ("c3", "b2"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        for f1, f2, g in itertools.islice(
                itertools.product(Q.maps, repeat=3), 0, None,
                7 if name == "b2" else 1):
            j = latq.pointwise_join([f1, f2])
            assert latq.compose(j, g) == latq.pointwise_join(
                [latq.compose(f1, g), latq.compose(f2, g)])
            assert latq.compose(g, j) == latq.pointwise_join(
                [latq.compose(g, f1), latq.compose(g, f2)])


# --------------------------------------------------------------- residuals

def test_residual_fixtures(zoo):
    c3 = zoo["c3"]
    o = latq.special(c3, "o")
    c_top = latq.special(c3, "c", c3.top)
    assert latq.residual_left(c_top, o) == latq.special(c3, "c", c3.bottom)
    assert latq.residual_right(o, c_top) == latq.special(c3, "c", c3.bottom)
    ident = latq.identity(c3)
    f = latq.LatMap(c3, c3, [0, 0, 2])
    assert latq.residual_left(ident, f) == f
    assert latq.residual_right(f, ident) == f
    assert latq.residual_left(f, c_top) == c_top
    assert latq.residual_right(c_top, f) == c_top


def test_residuals_satisfy_universal_property(zoo):
    # m3 and n5 are not distributive, so the interior's binding pairs
    # take part on both sides of each residual
    for name in ("c3", "b2", "m3", "n5"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        for g in Q.maps:
            for h in Q.maps:
                left = latq.residual_left(g, h)
                assert left == oracles.residual_left_max(L, Q, g, h)
                right = latq.residual_right(h, g)
                assert right == oracles.residual_right_max(L, Q, h, g)


def test_residual_validation(zoo):
    b2, c3 = zoo["b2"], zoo["c3"]
    alpha = latq.special(b2, "alpha", b2.top)
    jc = latq.identity(b2)
    with pytest.raises(latq.NotContinuous):
        latq.residual_left(alpha, jc)
    with pytest.raises(latq.NotContinuous):
        latq.residual_right(alpha, jc)
    with pytest.raises(latq.DomainMismatch):
        latq.residual_left(latq.identity(c3), jc)


# -------------------------------------------------------------------- star

def test_star_fixtures(zoo):
    c3 = zoo["c3"]
    assert latq.star(latq.identity(c3)) == latq.special(c3, "o")
    c1 = latq.special(c3, "c", 1)
    assert latq.star(c1).values.tolist() == [0, 0, 2]
    assert latq.star(c1) == latq.special(c3, "a", 1)
    m3 = zoo["m3"]
    double = latq.star(latq.star(latq.identity(m3)))
    assert double == latq.special(m3, "c", m3.bottom)
    assert double != latq.identity(m3)


def test_star_is_an_involution_on_cd(zoo):
    for name in ("c2", "c3", "c4", "b2"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        for f in Q.maps:
            assert latq.star(latq.star(f)) == f


def test_star_swaps_the_two_compositions(zoo):
    # the transform exchanges ordinary composition and the dual tensor,
    # reversing order: (g.f)* = f* (+) g*  and  (g (+) f)* = f* . g*
    L = zoo["b2"]
    Q = latq.enumerate_homset(L, L)
    rng = np.random.RandomState(5)
    for _ in range(40):
        f = Q.maps[rng.randint(len(Q))]
        g = Q.maps[rng.randint(len(Q))]
        assert latq.star(latq.compose(g, f)) == \
            latq.dual_tensor(latq.star(f), latq.star(g))
        assert latq.star(latq.dual_tensor(g, f)) == \
            latq.compose(latq.star(f), latq.star(g))


def test_star_two_routes_agree_cross_homset(zoo):
    # raney_join of the right adjoint vs left adjoint of the meet transform
    for a, b in (("c3", "b2"), ("b2", "c3"), ("m3", "n5")):
        dom, cod = zoo[a], zoo[b]
        Q = latq.enumerate_homset(dom, cod)
        for f in Q.maps:
            via_adjoint = latq.raney_join(latq.right_adjoint(f))
            via_meet = latq.left_adjoint(latq.raney_meet(f))
            assert via_adjoint == via_meet
            assert latq.star(f) == via_adjoint


# ------------------------------------------------------------- dual tensor

def test_dual_tensor_fixtures_and_unit(zoo):
    c3 = zoo["c3"]
    o = latq.special(c3, "o")
    ident = latq.identity(c3)
    assert latq.dual_tensor(o, o) == o
    # id (+) id = (id* . id*)* = (o . o)* = (const bottom)* = nu_1
    assert latq.dual_tensor(ident, ident).values.tolist() == [0, 2, 2]
    Q = latq.enumerate_homset(c3, c3)
    for f in Q.maps:
        assert latq.dual_tensor(o, f) == f
        assert latq.dual_tensor(f, o) == f


def test_dual_tensor_both_routes_checked_internally(zoo):
    # the star route dual_tensor computes equals the join transform of the
    # meet-transform composite, over the same 144 cross-homset pairs
    b2, c3 = zoo["b2"], zoo["c3"]
    Qf = latq.enumerate_homset(c3, b2)
    Qg = latq.enumerate_homset(b2, c3)
    for f in Qf.maps[:12]:
        for g in Qg.maps[:12]:
            gf = latq.dual_tensor(g, f)
            assert gf.dom == c3 and gf.cod == c3
            via_raney = latq.raney_join(
                latq.compose(latq.raney_meet(g), latq.raney_meet(f)))
            assert gf == via_raney


# ---------------------------------------------------------------- detectors

def _envelope_by_definition(M, N, h, f):
    return [oracles.inf(N, [h[x] for x in range(len(f)) if M.leq[y, f[x]]])
            for y in range(M.n)]


def test_residual_right_on_rectangular_homsets(zoo):
    # h: X -> N and f: X -> M; h / f is the greatest k in Q(M, N) with
    # k . f <= h, found here by filtering that homset
    rng = np.random.RandomState(5)
    carriers = [zoo[k] for k in ("n5", "m3", "c3", "b2")]
    for X, M, N in itertools.product(carriers, repeat=3):
        K = latq.enumerate_homset(M, N).matrix
        H = latq.enumerate_homset(X, N).matrix
        F = latq.enumerate_homset(X, M).matrix
        for h in H[rng.randint(len(H), size=4)]:
            for f in F[rng.randint(len(F), size=4)]:
                below = K[N.leq[K[:, f], h].all(axis=1)]
                top = [k for k in below if N.leq[below, k].all()]
                got = latq.residual_right(latq.LatMap(X, N, h),
                                          latq.LatMap(X, M, f))
                assert len(top) == 1, (X, M, N)
                assert got.values.tolist() == top[0].tolist(), (X, M, N)


def test_residual_right_on_a_wide_chain():
    # rows of 64 elements do not fit a row code, so every kernel runs on
    # its rows as given; h / f is the interior of y -> meet of h(x) over
    # x with y <= f(x)
    c64 = build_lattice(Poset(np.triu(np.ones((64, 64), dtype=bool))))
    rng = np.random.RandomState(3)
    for _ in range(20):
        h, f = (latq.LatMap(c64, c64, np.sort(rng.randint(64, size=64))
                            * (np.arange(64) > 0)) for _ in range(2))
        want = latq.interior(latq.LatMap(
            c64, c64, _envelope_by_definition(c64, c64, h.values, f.values)))
        assert latq.residual_right(h, f) == want


def _def_cyclic(L, Q, alpha):
    return all(
        latq.residual_left(f, alpha) == latq.residual_right(alpha, f)
        for f in Q.maps
    )


def _def_dualizing(L, Q, alpha):
    return all(
        latq.residual_left(latq.residual_right(alpha, f), alpha) == f
        and latq.residual_right(alpha, latq.residual_left(f, alpha)) == f
        for f in Q.maps
    )


def _def_codualizing(L, Q, beta):
    return all(
        latq.residual_left(beta, latq.compose(beta, x)) == x
        for x in Q.maps
    )


def test_detectors_match_definition_oracles(zoo):
    for name in ("c2", "c3"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        for alpha in Q.maps:
            assert latq.is_cyclic(alpha, Q).holds == \
                _def_cyclic(L, Q, alpha), (name, alpha.values)
            assert latq.is_dualizing(alpha, Q).holds == \
                _def_dualizing(L, Q, alpha), (name, alpha.values)
            assert latq.is_codualizing(alpha, Q).holds == \
                _def_codualizing(L, Q, alpha), (name, alpha.values)


def test_batched_detectors_match_definitions(zoo):
    # the zoo members whose definition loops run in about a second
    for name in ("c1", "c2", "c3", "c4", "b2", "m3", "n5"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        assert [f.key for f in latq.cyclic_elements(Q)] == \
            [f.key for f in Q.maps if _def_cyclic(L, Q, f)], name
        assert [f.key for f in latq.dualizing_elements(Q)] == \
            [f.key for f in Q.maps if _def_dualizing(L, Q, f)], name


def test_batched_detectors_match_per_member_loop(corpus, monkeypatch):
    # every built-in carrier with |Q| <= 128, and d4_7, whose 746 members
    # each search meets in more than one block
    checked, blocks = [], _logged_blocks(monkeypatch, 1 << 14)
    for L in corpus:
        Q = _endo_homset(L, 1 << 14)
        if Q is None:
            continue
        if len(Q) > 128 and L.name != "d4_7":
            continue
        blocks.clear()
        assert latq.cyclic_elements(Q) == \
            [f for f in Q.maps if latq.is_cyclic(f, Q).holds], L.name
        cyclic_blocks = len(blocks)
        assert latq.dualizing_elements(Q) == \
            [f for f in Q.maps if latq.is_dualizing(f, Q).holds], L.name
        if L.name == "d4_7":
            assert cyclic_blocks > 1 and len(blocks) - cyclic_blocks > 1
        checked.append(L.name)
    assert len(checked) == 35 and "d4_7" in checked


def _join_rows(L, C):
    """Pointwise join of the rows of C: at each x, the element whose up-set
    is the intersection of the values' up-sets."""
    upper = L.leq[C].all(axis=0)                       # [x, z]
    return (L.leq[None, :, :] == upper[:, None, :]).all(axis=-1).argmax(axis=1)


def _residuals_by_search(L, Q, a, f):
    """(f \\ a, a / f) as the greatest members k with f . k <= a and
    k . f <= a, each the join of the members that qualify."""
    F = Q.matrix
    left = _join_rows(L, F[L.leq[f[F], a].all(axis=1)])
    right = _join_rows(L, F[L.leq[F[:, f], a].all(axis=1)])
    return left, right


def test_batched_detectors_match_search_on_chunks(corpus, monkeypatch):
    # the narrowed searches meet d4_7's 746 members in blocks; members on
    # both sides of every block start, every 97th member, and every member
    # the searches keep are checked against residuals found by filtering
    # the homset
    L = next(c for c in corpus if c.name == "d4_7")
    Q = latq.enumerate_homset(L, L)
    blocks = _logged_blocks(monkeypatch, len(Q))
    cyclic = {Q.position(f) for f in latq.cyclic_elements(Q)}
    dualizing = {Q.position(f) for f in latq.dualizing_elements(Q)}
    assert cyclic and dualizing
    starts = {start for start, _, _ in blocks}
    assert len(starts) > 2
    edges = {j for s in starts for j in (s - 1, s) if j >= 0} | {len(Q) - 1}
    for j in sorted(edges | set(range(0, len(Q), 97)) | cyclic | dualizing):
        a = Q.matrix[j]
        is_cyclic = is_dualizing = True
        for f in Q.matrix:
            left, right = _residuals_by_search(L, Q, a, f)
            is_cyclic &= bool((left == right).all())
            if is_dualizing:
                back1 = _residuals_by_search(L, Q, a, right)[0]
                back2 = _residuals_by_search(L, Q, a, left)[1]
                is_dualizing = bool((back1 == f).all() and (back2 == f).all())
            if not (is_cyclic or is_dualizing):
                break
        assert (j in cyclic) == is_cyclic, j
        assert (j in dualizing) == is_dualizing, j


def test_cyclic_fixtures(zoo):
    c2, c3, n5, m3 = zoo["c2"], zoo["c3"], zoo["n5"], zoo["m3"]
    Q2 = latq.enumerate_homset(c2, c2)
    assert {f.key for f in latq.cyclic_elements(Q2)} == \
        {f.key for f in Q2.maps}
    Q3 = latq.enumerate_homset(c3, c3)
    got = sorted(f.values.tolist() for f in latq.cyclic_elements(Q3))
    assert got == [[0, 0, 1], [0, 2, 2]]
    Qn = latq.enumerate_homset(n5, n5)
    got = [f.values.tolist() for f in latq.cyclic_elements(Qn)]
    assert got == [[0, 4, 4, 4, 4]]
    # o equals c_top on m3, so the containment theorem collapses there
    Qm = latq.enumerate_homset(m3, m3)
    cyc = latq.cyclic_elements(Qm)
    assert all(f == latq.special(m3, "c", m3.top) for f in cyc)


def test_cyclic_witness_replays(zoo):
    n5 = zoo["n5"]
    Q = latq.enumerate_homset(n5, n5)
    o = latq.special(n5, "o")
    res = latq.is_cyclic(o, Q)
    assert not res.holds
    w = res.witness
    f = latq.LatMap(n5, n5, w["f"])
    assert latq.residual_left(f, o).values.tolist() == w["left_residual"]
    assert latq.residual_right(o, f).values.tolist() == w["right_residual"]
    assert w["left_residual"] != w["right_residual"]


def test_dualizing_witness_replays(zoo):
    n5 = zoo["n5"]
    Q = latq.enumerate_homset(n5, n5)
    o = latq.special(n5, "o")
    res = latq.is_dualizing(o, Q)
    assert not res.holds
    w = res.witness
    assert w == {"f": [0, 0, 1, 0, 1], "right_then_left": [0, 0, 3, 0, 3]}
    f = latq.LatMap(n5, n5, w["f"])
    back = latq.residual_right(o, latq.residual_left(f, o))
    assert back.values.tolist() == w["right_then_left"]


def test_detectors_refuse_an_incomplete_homset(zoo):
    # bottom \ o is the top member; on the homset without it, a residual
    # into o is not a member, and the detectors refuse rather than read a
    # missing position or give a verdict
    n5 = zoo["n5"]
    Q = latq.enumerate_homset(n5, n5)
    o = latq.special(n5, "o")
    bottom = Q.maps[0]
    top = latq.residual_left(bottom, o)
    assert top == latq.special(n5, "c", n5.top)
    keep = np.arange(len(Q)) != Q.position(top)
    part = quantale.HomsetEnumeration(n5, n5, Q.matrix[keep])
    assert bottom in part and o in part and top not in part
    for detect in (latq.is_cyclic, latq.is_dualizing):
        with pytest.raises(NotContinuous):
            detect(o, part)
    for search in (latq.cyclic_elements, latq.dualizing_elements,
                   latq.cyclic_dualizing_elements):
        with pytest.raises(NotContinuous):
            search(part)


@pytest.mark.parametrize("search", [
    latq.cyclic_elements, latq.central_elements, latq.dualizing_elements,
    latq.cyclic_dualizing_elements], ids=lambda f: f.__name__)
def test_searches_on_a_homset_without_rows(zoo, search):
    n5 = zoo["n5"]
    assert search(quantale.HomsetEnumeration(n5, n5, np.zeros((0, 5)))) == []


def test_narrowing_meets_every_member(corpus):
    # the same members with the rows reversed, so the blocks a candidate
    # meets first are the ones it met last
    carriers = {L.name: L for L in corpus}
    for name in ("m3", "n5", "b2", "c4", "d4_7"):
        L = carriers[name]
        Q = latq.enumerate_homset(L, L)
        R = quantale.HomsetEnumeration(L, L, Q.matrix[::-1])
        for search in (latq.cyclic_elements, latq.central_elements):
            assert {f.key for f in search(R)} == \
                {f.key for f in search(Q)}, (name, search.__name__)


def _last(L, Q, fails):
    """Q with the members f for which fails(f) holds moved to the end."""
    bad = np.array([fails(f) for f in Q.maps])
    assert bad.any() and not bad.all()
    order = np.concatenate([np.flatnonzero(~bad), np.flatnonzero(bad)])
    return quantale.HomsetEnumeration(L, L, Q.matrix[order])


def test_narrowing_drops_a_candidate_at_the_last_block(zoo):
    # each non-central (non-cyclic) member of b2 meets the members it
    # fails with only after all the others, and is still dropped
    b2 = zoo["b2"]
    Q = latq.enumerate_homset(b2, b2)
    central = {f.key for f in latq.central_elements(Q)}
    cyclic = {f.key for f in latq.cyclic_elements(Q)}
    assert len(central) == len(cyclic) == 2
    for c in Q.maps:
        if c.key not in central:
            R = _last(b2, Q, lambda g: latq.compose(c, g)
                      != latq.compose(g, c))
            assert {f.key for f in latq.central_elements(R)} == central
        if c.key not in cyclic:
            R = _last(b2, Q, lambda f: latq.residual_left(f, c)
                      != latq.residual_right(c, f))
            assert {f.key for f in latq.cyclic_elements(R)} == cyclic


def _logged_blocks(monkeypatch, B):
    """Spy on `quantale._narrowed`: the (start, stop, candidates) of each
    block it passes to its test, the stop clipped at B."""
    real, blocks = quantale._narrowed, []

    def logged(Q, test):
        def block(K, C):
            blocks.append((K.start, min(K.stop, B), len(C)))
            return test(K, C)
        return real(Q, block)
    monkeypatch.setattr(quantale, "_narrowed", logged)
    return blocks


def _tile_within(blocks, B, budget, row):
    starts, stops, _ = zip(*blocks)
    assert starts == (0, *stops[:-1]) and stops[-1] == B
    assert all((b - a) * c * row <= budget for a, b, c in blocks)


def test_narrowing_keeps_a_candidate_only_after_every_member(
        zoo, monkeypatch):
    # a synthetic test fails each candidate at most at one member
    # position, odd positions only, so the last member decides some; under
    # a small budget about half of b3's members survive every block, and
    # the byte bound, not the growth rule, sets the blocks
    Q = latq.enumerate_homset(zoo["b3"], zoo["b3"])
    fails_at = np.random.default_rng(0).permutation(len(Q))

    def test(K, C):
        at = fails_at[C]
        return ~((K.start <= at) & (at < K.stop) & (at % 2 == 1))
    budget = 1 << 16
    monkeypatch.setattr(lattice, "_CHUNK_BYTES", budget)
    blocks = _logged_blocks(monkeypatch, len(Q))
    kept = quantale._narrowed(Q, test)
    assert [Q.position(f) for f in kept] == \
        np.flatnonzero(fails_at % 2 == 0).tolist()
    _tile_within(blocks, len(Q), budget, Q.matrix[0].nbytes)
    assert len(blocks) > 32


def test_narrowing_blocks_tile_the_members_within_budget(corpus, monkeypatch):
    L = {L.name: L for L in corpus}["d4_7"]
    Q = latq.enumerate_homset(L, L)
    blocks = _logged_blocks(monkeypatch, len(Q))
    for search, kept in ((latq.cyclic_elements, 2),
                         (latq.central_elements, 2),
                         (latq.dualizing_elements, 1),
                         (latq.codualizing_elements, 1)):
        blocks.clear()
        assert len(search(Q)) == kept
        _tile_within(blocks, len(Q), lattice._CHUNK_BYTES,
                     Q.matrix[0].nbytes)
        assert len(blocks) <= 11
    # a test that drops nothing still meets O(log B) blocks: 1, 1, 2, 4, ...
    blocks.clear()
    everyone = quantale._narrowed(Q, lambda K, C: np.ones(len(C), bool))
    assert len(everyone) == len(Q)
    _tile_within(blocks, len(Q), lattice._CHUNK_BYTES, Q.matrix[0].nbytes)
    assert len(blocks) == 11


@pytest.mark.parametrize("search", ["cyclic_elements", "dualizing_elements"])
def test_composite_searches_peak_within_a_few_mb(corpus, search):
    # d4_1 has 7,776 members; the searches code their composites by
    # integer gathers, in blocks within the chunk budget, and each peaks
    # at about 2 MB
    L = {L.name: L for L in corpus}["d4_1"]
    Q = latq.enumerate_homset(L, L)
    tracemalloc.start()
    try:
        kept = getattr(latq, search)(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(Q) == 7776 and len(kept) == 2
    assert peak <= 4 << 20


def test_codualizing_search_matches_loop_and_definition(
        corpus, zoo, monkeypatch):
    # the narrowed search against is_codualizing on each member, over the
    # built-ins with |Q| <= 128 and d4_7, whose blocks tile its members
    # within the detector budget; and against the plain-loop definition
    checked = []
    for L in corpus:
        Q = _endo_homset(L, 1 << 14)
        if Q is None:
            continue
        if len(Q) > 128 and L.name != "d4_7":
            continue
        assert latq.codualizing_elements(Q) == \
            [f for f in Q.maps if latq.is_codualizing(f, Q).holds], L.name
        checked.append(L.name)
    assert len(checked) == 35 and "d4_7" in checked
    L = {L.name: L for L in corpus}["d4_7"]
    Q = latq.enumerate_homset(L, L)
    blocks = _logged_blocks(monkeypatch, len(Q))
    assert len(latq.codualizing_elements(Q)) == 1
    _tile_within(blocks, len(Q), lattice._CHUNK_BYTES, Q.matrix[0].nbytes)
    assert len(blocks) > 1
    for name in ("c1", "c2", "c3", "c4", "b2", "m3", "n5"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        assert [f.key for f in latq.codualizing_elements(Q)] == \
            [f.key for f in Q.maps if _def_codualizing(L, Q, f)], name


def test_detectors_list_no_whole_homset(corpus):
    L = {L.name: L for L in corpus}["d4_7"]
    Q = latq.enumerate_homset(L, L)
    assert len(latq.cyclic_elements(Q)) == len(latq.central_elements(Q)) == 2
    (alpha,) = latq.dualizing_elements(Q)
    assert latq.is_dualizing(alpha, Q).holds
    assert "maps" not in vars(Q)


def test_central_fixtures(zoo):
    for name in ("c2", "c3", "b2", "m3", "n5"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        got = {f.key for f in latq.central_elements(Q)}
        want = {latq.identity(L).key, latq.special(L, "c", L.bottom).key}
        assert got == want, name
    c1 = zoo["c1"]
    Q1 = latq.enumerate_homset(c1, c1)
    assert len(latq.central_elements(Q1)) == 1


def test_central_elements_match_definition(corpus):
    # members commuting with every member, in homset order
    carriers = {L.name: L for L in corpus}
    for name in ("c3", "b2", "m3", "n5", "d4_7"):
        Q = latq.enumerate_homset(carriers[name], carriers[name])
        want = [f for f in Q.maps if all(
            latq.compose(f, g) == latq.compose(g, f) for g in Q.maps)]
        assert latq.central_elements(Q) == want, name


def test_detectors_refuse_a_candidate_outside_the_homset(zoo):
    b2, c3 = zoo["b2"], zoo["c3"]
    Q = latq.enumerate_homset(c3, c3)
    for detect in (latq.is_cyclic, latq.is_dualizing, latq.is_codualizing):
        for other in (latq.special(b2, "o"), latq.identity(c3.op)):
            with pytest.raises(latq.DomainMismatch):
                detect(other, Q)
        with pytest.raises(latq.NotContinuous):
            detect(latq.LatMap(c3, c3, [2, 2, 2]), Q)


def test_codualizing_fixtures(zoo):
    c3 = zoo["c3"]
    Q = latq.enumerate_homset(c3, c3)
    assert latq.is_codualizing(latq.identity(c3), Q).holds
    assert not latq.is_codualizing(
        latq.special(c3, "c", c3.bottom), Q).holds
    nu1 = latq.special(c3, "nu", 1)
    res = latq.is_codualizing(nu1, Q)
    assert not res.holds
    x = latq.LatMap(c3, c3, res.witness["x"])
    back = latq.residual_left(nu1, latq.compose(nu1, x))
    assert back.values.tolist() == res.witness["recovered"]
    assert back != x


def test_dualizing_fixtures(zoo):
    c3 = zoo["c3"]
    Q = latq.enumerate_homset(c3, c3)
    o = latq.special(c3, "o")
    assert latq.is_dualizing(o, Q).holds
    c_top = latq.special(c3, "c", c3.top)
    assert not latq.is_dualizing(c_top, Q).holds
    c1 = zoo["c1"]
    Q1 = latq.enumerate_homset(c1, c1)
    only = Q1.maps[0]
    assert latq.is_cyclic(only, Q1).holds
    assert latq.is_dualizing(only, Q1).holds


def test_star_bridge_between_element_classes(zoo):
    # on CD carriers star swaps cyclic<->central and dualizing<->codualizing
    for name in ("c2", "c3", "b2", "c4"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        cyclic = {f.key for f in latq.cyclic_elements(Q)}
        central = {f.key for f in latq.central_elements(Q)}
        dualizing = {f.key for f in latq.dualizing_elements(Q)}
        codual = {f.key for f in latq.codualizing_elements(Q)}
        assert {latq.star(f).key for f in Q.maps if f.key in cyclic} == central
        assert {latq.star(f).key
                for f in Q.maps if f.key in dualizing} == codual


def test_not_endo_homset_guard(zoo):
    Q = latq.enumerate_homset(zoo["c2"], zoo["b2"])
    with pytest.raises(latq.NotEndoHomset):
        latq.cyclic_elements(Q)


# --------------------------------------------------------- involutive axioms

def test_involutive_axioms_pass_on_cd(zoo, monkeypatch):
    calls = []
    real = quantale.enumerate_homset

    def counted(dom, cod, cap=quantale.DEFAULT_CAP):
        calls.append((dom, cod))
        return real(dom, cod, cap)

    monkeypatch.setattr(quantale, "enumerate_homset", counted)
    for name in ("c1", "c2", "c3", "b2"):
        L = zoo[name]
        res = latq.check_involutive_axioms(L, L)
        assert res.holds, (name, res.witness)
        assert res.info["generators"] is not None
    # Q(L, L) is the homset checked, and its rotation factor is built from
    # the carrier, so each check enumerates one homset
    assert len(calls) == 4


def test_involutive_axioms_cross_homsets(zoo):
    for a, b in (("c2", "b2"), ("c3", "b2")):
        res = latq.check_involutive_axioms(zoo[a], zoo[b])
        assert res.holds, (a, b, res.witness)


def test_involutive_axioms_enumerate_only_their_homset(monkeypatch):
    # Q(c12, c12) is over the enumeration cap and Q(c2, c12) is not
    # needed: the rotation and the pair laws run on maps eps_{t,b} built
    # from the carriers, and Q(c12, c2) is the one homset enumerated
    c12, c2 = (latq.generate(latq.GeneratorSpec("chain", n=n))
               for n in (12, 2))
    calls = []
    real = quantale.enumerate_homset

    def counted(dom, cod, cap=quantale.DEFAULT_CAP):
        calls.append((dom.n, cod.n))
        return real(dom, cod, cap)

    monkeypatch.setattr(quantale, "enumerate_homset", counted)
    res = latq.check_involutive_axioms(c12, c2)
    assert res.holds, res.witness
    assert res.info["homset_size"] == 12
    assert res.info["generators"] is not None
    assert calls == [(12, 2)]


def test_involutive_axioms_free_the_enumeration_on_a_distributive_pair(
        zoo, monkeypatch):
    # the laws read only the homset's size on a distributive pair, so the
    # members are gone before they run; elsewhere the laws run on them
    refs, alive = [], []
    real_enumerate, real_laws = quantale.enumerate_homset, quantale._axiom_laws

    def enumerate_spy(dom, cod, cap=quantale.DEFAULT_CAP):
        A = real_enumerate(dom, cod, cap)
        refs.append(weakref.ref(A))
        return A

    def laws_spy(*args):
        alive.append(refs[-1]() is not None)
        return real_laws(*args)

    monkeypatch.setattr(quantale, "enumerate_homset", enumerate_spy)
    monkeypatch.setattr(quantale, "_axiom_laws", laws_spy)
    d4_0 = latq.downset_lattice(latq.Poset(np.eye(4, dtype=bool)))
    for L, M in ((zoo["b2"], zoo["b2"]), (zoo["c3"], zoo["b2"]),
                 (d4_0, d4_0), (zoo["n5"], zoo["n5"]), (zoo["c3"], zoo["m3"])):
        latq.check_involutive_axioms(L, M)
    assert alive == [False, False, False, True, True]


def test_involutive_axioms_fail_off_cd(zoo):
    for name in ("m3", "n5"):
        res = latq.check_involutive_axioms(zoo[name], zoo[name])
        assert not res.holds
        assert res.witness["law"] == "double_transform"
        # the identity map is the canonical failure
        L = zoo[name]
        f = latq.LatMap(L, L, res.witness["f"])
        back = latq.star(latq.star(f))
        assert back.values.tolist() == res.witness["twice"]
        assert back != f
    assert latq.check_involutive_axioms(zoo["m3"], zoo["m3"]).info[
        "homset_size"] == 50


ROTATION_CAP = 1 << 20    # triples the gathers' full rotation may check


def _composites(P, Q):
    """out[a, b] = P_a . Q_b, rowwise, for the gathers."""
    return P[:, Q]


def _axiom_laws_by_gathers(L, M, A, cap):
    """The laws of `check_involutive_axioms` as (law, ok, rows), computed
    as (B, B, n) gathers of every pair's composite, row by row, with the
    triangle rotation over all of Q(L, L) x A x A when that fits
    ROTATION_CAP."""
    FA, B = A.matrix, len(A)
    oL = quantale.special(L, "o").values
    oM = quantale.special(M, "o").values
    SA = quantale._batch_raney_join(M, L, A.rho)
    SS = quantale._batch_raney_join(
        L, M, quantale._batch_right_adjoint(M, L, SA))
    yield "double_transform", (SS == FA).all(axis=1), {"f": FA, "twice": SS}

    LE = M.leq[FA[:, None], FA[None]].all(axis=-1)
    T = _composites(FA, SA)                         # [i, j] = f_i . s_j
    C1 = M.leq[T, oM[None, None, :]].all(axis=-1)
    U = _composites(SA, FA)                         # [j, i] = s_j . f_i
    C2 = L.leq[U, oL[None, None, :]].all(axis=-1).T
    yield "order_reversal", (LE == C1) & (LE == C2), {
        "f": FA[:, None], "g": FA[None], "leq": LE,
        "right_compose_below_zero": C1, "left_compose_below_zero": C2}

    def formula(names, K, ref, X):
        ref = ref.reshape(B, B, K.n)
        alt = quantale._batch_raney_join(
            K, K, quantale._batch_right_adjoint(K, K, X))
        alt = alt.reshape(B, B, K.n).swapaxes(0, 1)
        return (ref == alt).all(axis=-1), {
            names[0]: FA[:, None], names[1]: FA[None],
            "residual": ref, "via_transform": alt}

    yield "left_residual_formula", *formula(
        ("g", "h"), L, quantale._batch_interior(
            L, L, A.rho[:, FA].reshape(B * B, L.n)), U.reshape(B * B, L.n))
    yield "right_residual_formula", *formula(
        ("h", "f"), M, quantale._batch_residual_right(
            M, M, FA[:, A.rho].swapaxes(0, 1).reshape(B * B, M.n)),
        T.reshape(B * B, M.n))

    E = A if M == L else latq.enumerate_homset(L, L, cap)
    if len(E) * B * B <= ROTATION_CAP:
        FE, SE = E.matrix, quantale._batch_raney_join(L, L, E.rho)
        for u in range(len(E)):
            Vu = FA[:, FE[u]]                       # [v] = f_v . e_u
            P1 = M.leq[Vu[:, None], FA[None]].all(axis=-1)
            P2 = L.leq[U.transpose(1, 0, 2), SE[u]].all(axis=-1)
            UW = FE[u][SA]                          # [w] = e_u . s_w
            P3 = L.leq[UW[None, :, :], SA[:, None, :]].all(axis=-1)
            yield "triangle_rotation", (P1 == P2) & (P1 == P3), {
                "f": FA[:, None], "e": FE[u][None, None], "g": FA[None],
                "compose_below": P1, "rotated_left": P2, "rotated_right": P3}


AXIOM_CASES = [("m3", "m3"), ("n5", "n5"), ("b2", "b2"), ("c4", "c4"),
               ("c3", "r04"), ("c3", "r09")]


@pytest.mark.parametrize("dom, cod", AXIOM_CASES)
def test_axiom_laws_match_the_pair_gathers(corpus, dom, cod):
    # the sweep over every pair of members runs the pair laws alone
    named = {L.name: L for L in corpus}
    L, M = named[dom], named[cod]
    A = latq.enumerate_homset(L, M)
    got = list(quantale._axiom_laws(L, M, A.matrix, None, {}))
    want = list(itertools.islice(
        _axiom_laws_by_gathers(L, M, A, quantale.DEFAULT_CAP), len(got)))
    assert [law for law, *_ in got] == [law for law, *_ in want] == [
        "double_transform", "order_reversal", "left_residual_formula",
        "right_residual_formula"]
    for (law, ok, _), (_, ok_want, _) in zip(got, want):
        assert ok.dtype == bool and np.array_equal(ok, ok_want), law
    w = latq.check_involutive_axioms(L, M).witness
    assert w == first_failing_law(
        _axiom_laws_by_gathers(L, M, A, quantale.DEFAULT_CAP))
    if L != M:      # the rectangular cases fail on the order reversal
        assert w["law"] == "order_reversal"


@pytest.mark.parametrize("kernel, law", [
    ("_batch_interior", "left_residual_formula"),
    ("_batch_left_adjoint", "right_residual_formula"),
])
def test_failing_residual_formula_names_the_first_failing_pair(
        zoo, monkeypatch, kernel, law):
    # a kernel spoiled on some rows, by a rule on each row alone, makes
    # the formula fail; the sweep on generators names a pair of members
    # that the gathers find failing under the same law, with its rows
    real = getattr(quantale, kernel)

    def spoiled(dom, cod, F):
        out = real(dom, cod, F).copy()
        bad = F.sum(axis=1) % 3 == 1
        out[bad] = out[bad][:, ::-1]
        return out

    monkeypatch.setattr(quantale, kernel, spoiled)
    for dom, cod in (("b2", "b2"), ("c4", "c4"), ("c3", "b2"), ("b2", "c4")):
        L, M = zoo[dom], zoo[cod]
        A = latq.enumerate_homset(L, M)
        w = latq.check_involutive_axioms(L, M).witness
        assert w is not None and w["law"] == law, (dom, cod)
        ok, rows = next((ok, rows) for name, ok, rows in _axiom_laws_by_gathers(
            L, M, A, quantale.DEFAULT_CAP) if name == law)
        first, second = list(w)[1:3]
        i, j = (A.matrix.tolist().index(w[k]) for k in (first, second))
        assert not ok[i, j], (dom, cod)
        assert {k: rows[k][i, j].tolist() for k in list(w)[3:]} == {
            k: w[k] for k in list(w)[3:]}, (dom, cod)


def _bounded_small_lattices():
    """The lattices among the posets of at most 6 elements with a new
    bottom and a new top, so of at most 8 elements."""
    out = []
    for k, p in enumerate(latq.all_posets(6)):
        leq = np.zeros((p.n + 2, p.n + 2), dtype=bool)
        leq[0], leq[:, -1], leq[1:-1, 1:-1] = True, True, p.leq
        try:
            out.append(build_lattice(Poset(leq), f"bounded{k}"))
        except NotALattice:
            pass
    return out


def _member_laws(L, M, A):
    """The first failing law of `quantale._axiom_laws` on every member and
    every pair of members of A, with no rotation."""
    return first_failing_law(quantale._axiom_laws(
        L, M, A.matrix, None, {}))


def test_reduced_axiom_sweep_matches_the_full_sweep(corpus):
    # every CD endo homset whose full sweep fits the suite's pair cap
    carriers = [L for L in corpus + _bounded_small_lattices()
                if latq.raney_join_criterion(L).holds]
    swept = 0
    for L in carriers:
        A = _endo_homset(L)
        if A is None or len(A) > PAIR_HOMSET_CAP:
            continue
        res = latq.check_involutive_axioms(L, L)
        reduced, info = res.witness, res.info
        full = _member_laws(L, L, A)
        assert info["generators"] is not None, L.name
        assert info["pairs"] == info["generators"] ** 2, L.name
        assert (reduced is None) == (full is None), L.name
        swept += 1
    assert swept == 46 + 22


def _join_irreducibles(L):
    """The elements with exactly one lower cover, by plain loops."""
    leq, n = L.leq.tolist(), L.n

    def covered_by(y, x):
        return y != x and leq[y][x] and not any(
            z not in (x, y) and leq[y][z] and leq[z][x] for z in range(n))

    return [x for x in range(n)
            if sum(covered_by(y, x) for y in range(n)) == 1]


def _epsilon_maps(dom, cod):
    """The maps eps_{t,b}: x -> b where x is not below t, else bottom,
    from dom to cod, for t meet-irreducible in dom (join-irreducible in
    its dual) and b join-irreducible in cod, and the zero map, by plain
    loops."""
    leq = dom.leq.tolist()
    return {(cod.bottom,) * dom.n} | {
        tuple(cod.bottom if leq[x][t] else b for x in range(dom.n))
        for t in _join_irreducibles(dom.op) for b in _join_irreducibles(cod)}


def _join_of_those_below(dom, cod, gens, f):
    """The pointwise join of the rows of gens below f, by plain loops."""
    below = [e for e in gens if oracles.pointwise_below(cod, e, f)]
    return tuple(oracles.sup(cod, [e[x] for e in below])
                 for x in range(dom.n))


def _distributive(K):
    """Meets distribute over joins, by plain loops over K's tables."""
    meet, join = K.meet.tolist(), K.join.tolist()
    return all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
               for x, y, z in itertools.product(range(K.n), repeat=3))


def _epsilon_sweep_applies(L, M):
    """Conditions (a) to (d) of `quantale._axiom_laws`, by plain loops over
    the tables of L and M."""
    def star(dom, cod, f):
        return oracles.raney_join(cod, dom, oracles.right_adjoint(dom, cod, f))

    def involutive_and_generated(dom, cod):
        eps = _epsilon_maps(dom, cod)
        for f in oracles.jc_maps(dom, cod):
            if (star(cod, dom, star(dom, cod, f)) != f
                    or _join_of_those_below(dom, cod, eps, f) != f):
                return False
        return True

    return (_distributive(L) and _distributive(M)
            and involutive_and_generated(L, M)
            and involutive_and_generated(M, L))


RECTANGULAR_CASES = [
    ("c3", "b2", None), ("b2", "c4", None), ("c2", "d3_0", None),  # both CD
    ("c2", "c6", 16),              # both CD, Q(c6, c2) over the cap, unused
    ("c3", "m3", None), ("n5", "b2", None),                       # one CD
    ("m3", "n5", None), ("n5", "m3", None),                       # neither
]


@pytest.mark.parametrize("dom, cod, cap", RECTANGULAR_CASES)
def test_reduced_rectangular_sweep_matches_the_full_sweep(
        corpus, dom, cod, cap):
    named = {L.name: L for L in corpus}
    L, M = named[dom], named[cod]
    cap = cap or quantale.DEFAULT_CAP
    A = latq.enumerate_homset(L, M, cap)
    res = latq.check_involutive_axioms(L, M, cap)
    reduced, info = res.witness, res.info
    full = _member_laws(L, M, A)
    assert (reduced or {}).get("law") == (full or {}).get("law")
    applies = _epsilon_sweep_applies(L, M)
    assert (info["generators"] is not None) == applies
    if applies:
        X, H = _epsilon_maps(L, M), _epsilon_maps(M, L)
        assert info["generators"] == len(X)
        assert info["pairs"] == len(X) * len(H) <= len(A) ** 2
        assert info["pairs"] == {("c3", "b2"): 5 * 5, ("b2", "c4"): 7 * 7,
                                 ("c2", "d3_0"): 4 * 4,
                                 ("c2", "c6"): 6 * 6}[dom, cod]
    else:
        # off a distributive pair the eps rows are still members, and so
        # are the stars of H: forced on them, the laws fail the order
        # reversal as the members do, at a pair of members
        X, H = _generator_rows(L, M)
        assert (A.positions(X) >= 0).all()
        assert (latq.enumerate_homset(M, L).positions(H) >= 0).all()
        forced = first_failing_law(quantale._axiom_laws(L, M, X, H, {}))
        assert forced["law"] == full["law"] == "order_reversal"
        assert (A.positions(np.array([forced["f"], forced["g"]])) >= 0).all()
    assert (full is None) == (L.is_distributive and M.is_distributive)


def _generator_rows(L, M):
    """The rows (X, H) that `check_involutive_axioms` gives
    `quantale._axiom_laws` over distributive L and M: the maps eps_{t,b}
    of Q(L, M) and Q(M, L)."""
    return quantale._epsilon_maps(L, M), quantale._epsilon_maps(M, L)


def _rotation_holds(L, M, A):
    """(on generators, on the gathers) whether every triangle rotation law
    holds, each route running all its laws, failing or not; None where
    the gathers' full rotation is over ROTATION_CAP."""
    E = A if M == L else latq.enumerate_homset(L, L)
    if len(E) * len(A) ** 2 > ROTATION_CAP:
        return None
    gens = quantale._axiom_laws(L, M, *_generator_rows(L, M), {})
    full = _axiom_laws_by_gathers(L, M, A, quantale.DEFAULT_CAP)
    return tuple(all(ok.all() for law, ok, _ in laws
                     if law == "triangle_rotation")
                 for laws in (list(gens), list(full)))


def test_rotation_on_generators_matches_the_full_rotation(corpus):
    # every CD endo homset, and every both-CD rectangular case, whose
    # full rotation fits ROTATION_CAP
    named = {L.name: L for L in corpus}
    cases = [(L, L) for L in corpus + _bounded_small_lattices()
             if L.is_distributive]
    cases += [(named[a], named[b]) for a, b, _ in RECTANGULAR_CASES
              if named[a].is_distributive and named[b].is_distributive]
    checked = 0
    for L, M in cases:
        A = _endo_homset(L) if L == M else latq.enumerate_homset(L, M)
        verdicts = None if A is None else _rotation_holds(L, M, A)
        if verdicts is not None:
            assert verdicts == (True, True), (L.name, M.name)
            assert latq.check_involutive_axioms(L, M).info[
                "generators"] is not None, (L.name, M.name)
            checked += 1
    assert checked == 26 + 6 + 4    # built-in endo, bounded, rectangular


@pytest.mark.parametrize("mutant", ["star", "composite"])
@pytest.mark.parametrize("dom, cod", [("c3", "b2"), ("b2", "c3")])
def test_rotation_mutants_are_caught_by_both_routes(
        zoo, monkeypatch, dom, cod, mutant):
    # "star": the star of e0 = eps_{t,b}: x -> b where x not<= t, else
    # bottom, in Q(L, L), with t the first of M(L) and b of J(L), a row
    # of the rotation's factor E, is made the top map; f . e0 <= g then
    # fails for some f and g while g* . f <= e0* holds.  "composite": the
    # rotation's first composite g* . f is made the top map; at e = zero,
    # f . e <= g holds while g* . f <= e* fails at bottom.  Rectangular,
    # with L.n != M.n, so that neither spoil reaches the stars of Q(L, M)
    # and Q(M, L).
    L, M = zoo[dom], zoo[cod]
    A = latq.enumerate_homset(L, M)
    assert _rotation_holds(L, M, A) == (True, True)
    if mutant == "star":
        t, b = L.op.join_irreducibles[0], L.join_irreducibles[0]
        e0 = np.where(L.leq[:, t], L.bottom, b)
        rho = quantale._batch_right_adjoint(L, L, e0[None])[0]
        real = quantale._batch_raney_join

        def spoiled(d, c, F):
            out = real(d, c, F)
            if d is L and c is L:
                out = out.copy()
                out[(F == rho).all(axis=1)] = L.top
            return out

        monkeypatch.setattr(quantale, "_batch_raney_join", spoiled)
    else:
        real_below, real_composites = quantale._composites_below, _composites

        def spoiled_below(K, RP, Q, R):    # P_a . Q_b <= R_r, [a, b, r]
            out = real_below(K, RP, Q, R)
            if K is M and RP.shape[1] == L.n:      # g* . f <= e*
                out[0, 0] = (R == L.top).all(axis=1)
            return out

        def spoiled_composites(P, Q):
            out = real_composites(P, Q)
            if P.shape[1] == M.n and Q.shape[1] == L.n:
                out = out.copy()
                out[0, 0] = L.top
            return out

        monkeypatch.setattr(quantale, "_composites_below", spoiled_below)
        monkeypatch.setitem(globals(), "_composites", spoiled_composites)
    assert _rotation_holds(L, M, A) == (False, False)


def test_rank_one_maps_generate_homsets_over_distributive_domains(corpus):
    # the membership and the lemma (d) of `quantale._axiom_laws`, by plain
    # loops apart from choosing the carriers: on every carrier each
    # eps_{t,b} is join-continuous, and over distributive carriers they
    # join-generate the homset; `quantale._epsilon_maps` gives the same
    # rows, the zero map first; about 1 s on a 2-vCPU host
    named = {L.name: L for L in corpus}
    distributive = [L for L in corpus if _distributive(L)]
    both_cd = [(named[a], named[b]) for a, b, _ in RECTANGULAR_CASES
               if _distributive(named[a]) and _distributive(named[b])]
    homsets = ([(L, L) for L in distributive if L.n <= 6]
               + both_cd + [(M, L) for L, M in both_cd])
    rectangular = [(named[a], named[b]) for a, b, _ in RECTANGULAR_CASES]
    listed = ([(L, L) for L in corpus] + rectangular
              + [(M, L) for L, M in rectangular])
    for dom, cod in listed:
        eps = _epsilon_maps(dom, cod)
        rows = quantale._epsilon_maps(dom, cod).tolist()
        assert len(rows) == len(eps) and set(map(tuple, rows)) == eps
        assert rows[0] == [cod.bottom] * dom.n
        for e in eps:
            assert oracles.join_continuous(dom, cod, e), (dom.name, e)
    for dom, cod in homsets:
        eps = _epsilon_maps(dom, cod)
        for f in oracles.jc_maps(dom, cod):
            assert f == _join_of_those_below(dom, cod, eps, f), (
                dom.name, cod.name, f)
    assert len(distributive) == 53 and len(homsets) == 34 + 2 * 4
    assert len(listed) == 86 + 2 * 8


@pytest.mark.parametrize("name", ["m3", "n5"])
def test_rank_one_maps_off_distributive_domains(zoo, name):
    # the eps_{t,b} are members of Q(m3, m3) and Q(n5, n5), but some
    # join-irreducible of m3 and n5 is not join-prime, and some member is
    # not the join of the eps_{t,b} below it
    L = zoo[name]
    eps = _epsilon_maps(L, L)
    assert all(oracles.join_continuous(L, L, e) for e in eps)
    assert any(f != _join_of_those_below(L, L, eps, f)
               for f in oracles.jc_maps(L, L))


@pytest.mark.parametrize("dom, cod", [("c1", "c1"), ("c2", "c1"),
                                      ("c1", "c3")])
def test_axiom_sweep_on_one_element_homsets(zoo, dom, cod):
    # J(c1) is empty and c1 has only its bottom: the zero map alone
    # generates, so the reduced sweep runs one pair
    res = latq.check_involutive_axioms(zoo[dom], zoo[cod])
    assert res.holds and res.info["homset_size"] == 1
    assert res.info["generators"] == 1 and res.info["pairs"] == 1


def test_axiom_verdicts_match_a_slice_of_the_pair_references(
        corpus, perfbench_workloads):
    # every tenth pair of the benchmark's axiom band, 64 to 512 members,
    # in the order of perfbench/refs/pairs.json, read and never written:
    # 261 pairs, 120 of them both CD and swept on generators, in about
    # 1 s on a 2-vCPU host
    named = {L.name: L for L in corpus}
    band = [r for r in perfbench_workloads.load_ref("pairs.json")
            if perfbench_workloads.in_band(r)][::10]
    reduced = held = 0
    for r in band:
        L, M = named[r["dom"]], named[r["cod"]]
        res = latq.check_involutive_axioms(L, M)
        assert res.holds == r["axioms"], (r["dom"], r["cod"])
        assert res.info["homset_size"] == r["count"]
        reduced += res.info["generators"] is not None
        held += res.holds
    assert len(band) == 261 and reduced == held == 120


def _loop_endomaps(leq, join, bottom):
    """The join-continuous endomaps of the lattice with these tables, by
    plain loops: a monotone choice of values on the join-irreducibles,
    extended by joins, kept when it preserves binary joins."""
    n = len(leq)

    def sup(xs):
        out = bottom
        for x in xs:
            out = join[out][x]
        return out

    below = [[y for y in range(n) if leq[y][x] and y != x] for x in range(n)]
    irr = sorted((x for x in range(n) if x != bottom and sup(below[x]) != x),
                 key=lambda x: len(below[x]))
    found, values = [], {}

    def choose(k):
        if k == len(irr):
            f = tuple(sup(values[j] for j in irr if leq[j][x])
                      for x in range(n))
            if all(f[join[x][y]] == join[f[x]][f[y]]
                   for x in range(n) for y in range(x)):
                found.append(f)
            return
        floor = sup(values[j] for j in irr[:k] if leq[j][irr[k]])
        for v in range(n):
            if leq[floor][v]:
                values[irr[k]] = v
                choose(k + 1)

    choose(0)
    return found


def test_rank_one_maps_generate_exactly_the_cd_endo_homsets(corpus):
    # plain loops over the lattice tables, apart from choosing the carriers
    verdicts = []
    for L in corpus:
        Q = _endo_homset(L)
        if Q is None or len(Q) > PAIR_HOMSET_CAP:
            continue
        n, bottom = L.n, L.bottom
        leq, join = L.leq.tolist(), L.join.tolist()
        members = _loop_endomaps(leq, join, bottom)
        assert len(members) == len(latq.enumerate_homset(L, L)), L.name
        # e_{a,b}: x -> b where x is not below a, else bottom
        rank_one = {tuple(bottom if leq[x][a] else b for x in range(n))
                    for a in range(n) for b in range(n)}
        assert rank_one <= set(members), L.name

        def regenerated(f):
            out = [bottom] * n
            for e in rank_one:
                if all(leq[e[x]][f[x]] for x in range(n)):
                    out = [join[u][v] for u, v in zip(out, e)]
            return tuple(out) == f

        generated = all(regenerated(f) for f in members)
        cd = latq.classify_lattice(L).completely_distributive
        assert generated == cd, L.name
        verdicts.append(cd)
    assert verdicts.count(True) == 46 and False in verdicts


def _star_lemma_parts(L):
    """By plain loops over L's tables: the rank-one maps e_{c,b} (x -> b
    where x is not below c, else bottom), keyed by (c, b); the star of an
    endomap (rho, then the join transform); the meet of a family of
    endomaps in the endo homset, the greatest join-continuous map below
    their pointwise meet; and the lemma's closed form for a family of
    keys, x -> join over the join-irreducibles p <= x of the meet of the c
    with p <= b."""
    n, bottom, top = L.n, L.bottom, L.top
    leq, join, meet = L.leq.tolist(), L.join.tolist(), L.meet.tolist()

    def sup(xs):
        out = bottom
        for x in xs:
            out = join[out][x]
        return out

    def inf(xs):
        out = top
        for x in xs:
            out = meet[out][x]
        return out

    def star(f):
        rho = [sup(x for x in range(n) if leq[f[x]][y]) for y in range(n)]
        return tuple(sup(rho[t] for t in range(n) if not leq[x][t])
                     for x in range(n))

    def homset_meet(fs):
        # lower h at z until h(x) <= h(y) for x <= y and h(x v y) <= h(x) v
        # h(y): each step keeps every join-continuous map below h below it
        h = [inf(f[x] for f in fs) for x in range(n)]
        h[bottom], changed = bottom, True
        while changed:
            changed = False
            for x in range(n):
                for y in range(n):
                    z, v = ((x, h[y]) if leq[x][y]
                            else (join[x][y], join[h[x]][h[y]]))
                    if not leq[h[z]][v]:
                        h[z], changed = meet[h[z]][v], True
        return tuple(h)

    irr = [x for x in range(n) if x != bottom
           and sup(y for y in range(n) if leq[y][x] and y != x) != x]

    def closed(keys):
        return tuple(sup(inf(c for c, b in keys if leq[p][b])
                         for p in irr if leq[p][x]) for x in range(n))

    rank_one = {(c, b): tuple(bottom if leq[x][c] else b for x in range(n))
                for c in range(n) for b in range(n)}
    return rank_one, star, homset_meet, closed


def _star_lemma_misses(L, members):
    """The members f whose star is not the meet of the stars of the
    rank-one maps below f, or not the lemma's closed form for them."""
    leq = L.leq.tolist()
    rank_one, star, homset_meet, closed = _star_lemma_parts(L)
    stars = {key: star(e) for key, e in rank_one.items()}
    misses = []
    for f in members:
        keys = [key for key, e in rank_one.items()
                if all(leq[e[x]][f[x]] for x in range(L.n))]
        s = star(f)
        if not s == homset_meet([stars[k] for k in keys]) == closed(keys):
            misses.append(f)
    return misses


def test_star_lemma_on_the_distributive_endo_homsets(corpus):
    # plain loops over the lattice tables, apart from choosing the carriers
    # (the lemma in `quantale._axiom_laws`)
    checked = 0
    for L in corpus:
        Q = _endo_homset(L)
        if not L.is_distributive or Q is None or len(Q) > PAIR_HOMSET_CAP:
            continue
        members = _loop_endomaps(L.leq.tolist(), L.join.tolist(), L.bottom)
        assert _star_lemma_misses(L, members) == [], L.name
        checked += 1
    assert checked == 46


@pytest.mark.parametrize("name", ["m3", "n5"])
def test_star_lemma_fails_off_distributive_carriers(zoo, name):
    # on m3 and n5 the identity still holds for the rank-one maps below
    # each member, but they do not generate the homset, and the star of
    # some join of two members is not the meet of their stars
    L = zoo[name]
    join = L.join.tolist()
    members = _loop_endomaps(L.leq.tolist(), join, L.bottom)
    assert _star_lemma_misses(L, members) == []
    _, star, homset_meet, _ = _star_lemma_parts(L)
    assert any(
        star(tuple(join[u][v] for u, v in zip(f, g)))
        != homset_meet([star(f), star(g)])
        for f, g in itertools.combinations(members, 2))

def test_star_deflates_every_join_continuous_map(corpus):
    # f** <= f for every jc map f: L -> M, the deflation step in
    # `quantale._axiom_laws`, by plain loops over every ordered pair of
    # built-ins with at most 5 elements, CD or not; about 1.5 s on a
    # 2-vCPU host
    def star(dom, cod, f):
        return oracles.raney_join(cod, dom, oracles.right_adjoint(dom, cod, f))

    small = [L for L in corpus if L.n <= 5]
    maps = deflated = 0
    for dom, cod in itertools.product(small, repeat=2):
        for f in oracles.jc_maps(dom, cod):
            twice = star(cod, dom, star(dom, cod, f))
            assert oracles.pointwise_below(cod, twice, f), (dom, cod, f)
            maps += 1
            deflated += twice != f
    assert len(small) ** 2 == 961 and maps == 17813 and deflated == 22


def test_axiom_sweep_peak_memory_on_d4_7(corpus):
    # the (B, B, n) gathers peaked at 124.8 MB on d4_7 (B = 746)
    L = {L.name: L for L in corpus}["d4_7"]
    tracemalloc.start()
    try:
        res = latq.check_involutive_axioms(L, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.holds and res.info["homset_size"] == 746
    assert peak <= 124.8 / 2 * 2 ** 20


def test_axiom_laws_on_the_generators_of_b8_in_bounded_memory(large_corpus):
    # b8's homset is over the cap; on its 65 maps eps_{t,b} a side the
    # rotation's (|X|, |E|, n, n) "not below" table peaked at 1.34 GB,
    # where each composite below a map through the right adjoint takes
    # about 18 MB
    L = {L.name: L for L in large_corpus}["b8"]
    X = quantale._epsilon_maps(L, L)
    tracemalloc.start()
    try:
        w = first_failing_law(quantale._axiom_laws(L, L, X, X, {}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w is None and len(X) == 65
    assert peak < 128 * 2 ** 20


@pytest.mark.parametrize("empty", [None, "P", "Q", "R"])
@pytest.mark.parametrize("D, N, T", [("c3", "b2", "c4"), ("m3", "m3", "n5"),
                                     ("n5", "n5", "n5")])
def test_composites_below_match_plain_loops(zoo, D, N, T, empty):
    # P_a . Q_b <= R_r for members P of Q(N, T), Q of Q(D, N) and R of
    # Q(D, T), given the right adjoints of the P; m3 and n5 are not
    # distributive, and n5 -> n5 is an endo case, where P and its right
    # adjoints have one shape
    D, N, T = zoo[D], zoo[N], zoo[T]
    A = latq.enumerate_homset(N, T)
    P, RP = A.matrix[::3], A.rho[::3]
    Q = latq.enumerate_homset(D, N).matrix[::2]
    R = latq.enumerate_homset(D, T).matrix[::2]
    if empty == "P":
        P, RP = P[:0], RP[:0]
    elif empty == "Q":
        Q = Q[:0]
    elif empty == "R":
        R = R[:0]
    got = quantale._composites_below(N, RP, Q, R)
    want = np.array([[[T.leq[P[a][Q[b]], R[r]].all() for r in range(len(R))]
                      for b in range(len(Q))] for a in range(len(P))],
                    dtype=bool).reshape(len(P), len(Q), len(R))
    assert got.shape == want.shape and np.array_equal(got, want)
    if empty is None:
        assert 0 < want.sum() < want.size


def test_axiom_sweep_on_generators_peak_memory_on_d4_1(corpus):
    # the full sweep over all B^2 pairs peaks at about 3.4 GB on d4_1
    # (B = 7,776); the sweep on its 17 generators eps_{t,b} does not
    L = {L.name: L for L in corpus}["d4_1"]
    tracemalloc.start()
    try:
        res = latq.check_involutive_axioms(L, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.holds and res.info["homset_size"] == 7776
    assert res.info["generators"] == 17 and res.info["pairs"] == 17 ** 2
    assert peak <= 32 * 2 ** 20


def test_axiom_check_on_d4_0_runs_its_kernels_on_generators_alone(
        corpus, monkeypatch):
    # d4_0 has 65,536 members and 17 generators eps_{t,b} a side: no
    # kernel call of the check may take more rows than the 17 * 17 pairs
    rows = []
    for name in ("_batch_interior", "_batch_left_adjoint",
                 "_batch_raney_join", "_batch_right_adjoint"):
        def spy(dom, cod, F, real=getattr(quantale, name)):
            rows.append(len(F))
            return real(dom, cod, F)

        monkeypatch.setattr(quantale, name, spy)
    L = {L.name: L for L in corpus}["d4_0"]
    res = latq.check_involutive_axioms(L, L)
    assert res.holds and res.info["homset_size"] == 65536
    assert res.info["generators"] == 17 and res.info["pairs"] == 17 ** 2
    assert rows and max(rows) <= 17 ** 2


@pytest.mark.parametrize("side", ["X", "H"])
def test_a_spoiled_generator_star_fails_the_double_transform(
        zoo, monkeypatch, side):
    # the star of one nonzero eps_{t,b}, of Q(L, M) on side X and of
    # Q(M, L), not a star of X, on side H, is made the top map, whose
    # star is the zero map; the check reports that generator, a member,
    # as its double-transform witness
    L, M = zoo["c3"], zoo["b2"]
    X = quantale._epsilon_maps(L, M)
    if side == "X":
        a, b, f = L, M, X[-1]
    else:
        SX = quantale._stars(L, M, X)
        a, b = M, L
        f = next(h for h in quantale._epsilon_maps(M, L)[1:]
                 if not (SX == h).all(axis=1).any())
    rho = quantale._batch_right_adjoint(a, b, f[None])[0]
    real = quantale._batch_raney_join

    def spoiled(d, c, F):
        out = real(d, c, F)
        if d is b and c is a:
            out = out.copy()
            out[(F == rho).all(axis=1)] = a.top
        return out

    monkeypatch.setattr(quantale, "_batch_raney_join", spoiled)
    w = latq.check_involutive_axioms(L, M).witness
    assert w["law"] == "double_transform" and w["f"] == f.tolist()
    assert latq.LatMap(a, b, f) in latq.enumerate_homset(a, b)


def test_dualizing_search_peak_memory_on_d4_7(corpus):
    # the (|A|, B, n) residual gathers peaked at 62.0 MB on d4_7 (B = 746)
    L = {L.name: L for L in corpus}["d4_7"]
    Q = latq.enumerate_homset(L, L)
    tracemalloc.start()
    try:
        found = latq.dualizing_elements(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 1
    assert peak <= 62.0 / 2 * 2 ** 20


def test_cyclic_dualizing_search(zoo):
    c3 = zoo["c3"]
    Q3 = latq.enumerate_homset(c3, c3)
    found = latq.cyclic_dualizing_elements(Q3)
    assert [f.values.tolist() for f in found] == [[0, 0, 1]]
    for name in ("m3", "n5"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        assert latq.cyclic_dualizing_elements(Q) == []


# ------------------------------------------------------------ homset lattice

def test_homset_lattice_is_distributive_for_tiny_carriers(zoo):
    for name in ("c2", "c3"):
        L = zoo[name]
        Q = latq.enumerate_homset(L, L)
        QL = latq.homset_lattice(Q)
        assert QL.n == len(Q)
        assert latq.distributive_oracle(QL).holds
    # b1 is structurally c2
    b1 = latq.generate(latq.GeneratorSpec("boolean", k=1))
    QL = latq.homset_lattice(latq.enumerate_homset(b1, b1))
    assert QL.n == 2


def test_homset_lattice_is_refused_above_the_element_cap(corpus):
    r24 = next(L for L in corpus if L.name == "r24")
    Q = latq.enumerate_homset(r24, r24)
    assert len(Q) == 1153
    with pytest.raises(latq.TooLarge):
        latq.homset_lattice(Q)


def test_homset_lattice_is_refused_before_its_order_is_built(corpus):
    # the 7,776 x 7,776 pointwise order of Q(d4_1, d4_1) peaked at 288 MB
    # when it was built before the refusal
    L = {L.name: L for L in corpus}["d4_1"]
    Q = latq.enumerate_homset(L, L)
    tracemalloc.start()
    try:
        with pytest.raises(latq.TooLarge) as e:
            latq.homset_lattice(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cap = latq.lattice.MAX_ELEMENTS
    assert str(e.value) == f"7776 elements exceeds the {cap} cap"
    assert peak < 16 * 2 ** 20


def test_homset_lattice_order_matches_the_pointwise_gather(zoo):
    for name, L in zoo.items():
        Q = latq.enumerate_homset(L, L)
        F = Q.matrix
        QL = latq.homset_lattice(Q)
        assert np.array_equal(QL.leq, L.leq[F[:, None], F[None]].all(axis=-1)), \
            name


# ------------------------------------------------------- pointwise order

def _pointwise_leq_loop(cod, F, G):
    out = np.zeros((len(F), len(G)), dtype=bool)
    for i, f in enumerate(F):
        for j, g in enumerate(G):
            out[i, j] = all(cod.leq[a, b] for a, b in zip(f, g))
    return out


@pytest.mark.parametrize("dom, cod, rows, cols", [
    ("c3", "c3", 9, 5),
    ("b2", "b3", 4, 11),
    ("c3", "n5", 12, 7),
    ("n5", "c1", 3, 6),
    ("m3", "n5", 0, 6),
    ("m3", "n5", 6, 0),
    ("c1", "c1", 0, 0),
    # word edges of the packed columns, no rows, a one-element codomain
    ("c3", "n5", 5, 1),
    ("b2", "m3", 7, 63),
    ("n5", "b3", 6, 64),
    ("c3", "n5", 9, 65),
    ("m3", "b2", 4, 129),
    ("b3", "n5", 0, 129),
    ("n5", "c1", 5, 65),
])
def test_pointwise_leq_matches_double_loop(zoo, dom, cod, rows, cols):
    D, C = zoo[dom], zoo[cod]
    rng = np.random.RandomState(rows * 31 + cols)
    F = rng.randint(0, C.n, size=(rows, D.n))
    G = rng.randint(0, C.n, size=(cols, D.n))
    # half the columns lie above some row of F, so both verdicts occur
    k = min(rows, cols // 2)
    G[:k] = C.join[F[:k], G[:k]]
    got = quantale._pointwise_leq(C, F, G)
    want = _pointwise_leq_loop(C, F, G)
    assert got.shape == (rows, cols) and got.dtype == bool
    assert np.array_equal(got, want)
    if k and C.n > 1:
        assert want.any() and not want.all()

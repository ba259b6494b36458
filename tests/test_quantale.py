import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import latq
import oracles
from latq import quantale
from latq.cd import first_failing_law
from latq.errors import NotALattice, NotContinuous
from latq.lattice import Poset, build_lattice
from latq.suite import PAIR_HOMSET_CAP


# ------------------------------------------------------------- enumeration

def test_homset_counts(zoo):
    expect = {"c2": 2, "c3": 6, "b2": 16, "m3": 50, "n5": None}
    assert len(latq.enumerate_homset(zoo["c2"], zoo["c2"])) == 2
    assert len(latq.enumerate_homset(zoo["c3"], zoo["c3"])) == 6
    assert len(latq.enumerate_homset(zoo["b2"], zoo["b2"])) == 16
    assert len(latq.enumerate_homset(zoo["m3"], zoo["m3"])) == 50
    assert len(latq.enumerate_homset(zoo["b3"], zoo["b3"])) == 512


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
        if quantale.homset_estimate(L, L) > quantale.DEFAULT_CAP:
            continue
        Q = latq.enumerate_homset(L, L)
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


def test_homset_cap(zoo):
    with pytest.raises(latq.CapExceeded):
        latq.enumerate_homset(zoo["b3"], zoo["b3"], cap=100)


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


def test_units(zoo):
    u = latq.units(zoo["c3"])
    assert u.one == latq.identity(zoo["c3"])
    assert u.zero == latq.special(zoo["c3"], "o")


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


def test_batched_detectors_match_per_member_loop(corpus):
    # every built-in carrier with |Q| <= 128, and d4_7, whose 746 members
    # take more than one chunk
    checked = []
    for L in corpus:
        if latq.quantale.homset_estimate(L, L) > 1 << 14:
            continue
        Q = latq.enumerate_homset(L, L)
        if len(Q) > 128 and L.name != "d4_7":
            continue
        if L.name == "d4_7":
            assert len(Q) * Q.matrix.nbytes > latq.quantale._CHUNK_BYTES
        assert latq.cyclic_elements(Q) == \
            [f for f in Q.maps if latq.is_cyclic(f, Q).holds], L.name
        assert latq.dualizing_elements(Q) == \
            [f for f in Q.maps if latq.is_dualizing(f, Q).holds], L.name
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


def test_batched_detectors_match_search_on_chunks(corpus):
    # d4_7's 746 members take three chunks; members from each chunk,
    # both sides of each boundary, and every member the pass keeps are
    # checked against residuals found by filtering the homset
    L = next(c for c in corpus if c.name == "d4_7")
    Q = latq.enumerate_homset(L, L)
    step = latq.quantale._CHUNK_BYTES // Q.matrix.nbytes
    assert len(Q) > 2 * step
    cyclic = {Q.position(f) for f in latq.cyclic_elements(Q)}
    dualizing = {Q.position(f) for f in latq.dualizing_elements(Q)}
    assert cyclic and dualizing
    edges = {0, step - 1, step, 2 * step - 1, 2 * step, len(Q) - 1}
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
    assert w == {"f": [0, 0, 1, 0, 1], "left_then_right": [0, 0, 1, 1, 1],
                 "right_then_left": [0, 0, 3, 0, 3]}
    f = latq.LatMap(n5, n5, w["f"])
    back1 = latq.residual_left(latq.residual_right(o, f), o)
    back2 = latq.residual_right(o, latq.residual_left(f, o))
    assert back1.values.tolist() == w["left_then_right"]
    assert back2.values.tolist() == w["right_then_left"]


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
    monkeypatch.setattr(quantale, "_CHUNK_BYTES", budget)
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
    for search in (latq.cyclic_elements, latq.central_elements):
        blocks.clear()
        assert len(search(Q)) == 2
        _tile_within(blocks, len(Q), quantale._CHUNK_BYTES,
                     Q.matrix[0].nbytes)
        assert len(blocks) <= 11
    # a test that drops nothing still meets O(log B) blocks: 1, 1, 2, 4, ...
    blocks.clear()
    everyone = quantale._narrowed(Q, lambda K, C: np.ones(len(C), bool))
    assert len(everyone) == len(Q)
    _tile_within(blocks, len(Q), quantale._CHUNK_BYTES, Q.matrix[0].nbytes)
    assert len(blocks) == 11


def test_codualizing_search_matches_loop_and_definition(
        corpus, zoo, monkeypatch):
    # the narrowed search against is_codualizing on each member, over the
    # built-ins with |Q| <= 128 and d4_7, whose blocks tile its members
    # within the detector budget; and against the plain-loop definition
    checked = []
    for L in corpus:
        if latq.quantale.homset_estimate(L, L) > 1 << 14:
            continue
        Q = latq.enumerate_homset(L, L)
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
    _tile_within(blocks, len(Q), quantale._CHUNK_BYTES, Q.matrix[0].nbytes)
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
        assert res.info["rotation_checked"]
    # the rotation factor of an endo homset is the homset itself
    assert len(calls) == 4


def test_involutive_axioms_cross_homsets(zoo):
    for a, b in (("c2", "b2"), ("c3", "b2")):
        res = latq.check_involutive_axioms(zoo[a], zoo[b])
        assert res.holds, (a, b, res.witness)


def test_involutive_axioms_with_a_refused_rotation_factor(monkeypatch):
    # Q(c12, c12) is over the enumeration cap, so the rotation over it
    # does not run, and the pair laws on Q(c12, c2)'s 12 members still do
    c12, c2 = (latq.generate(latq.GeneratorSpec("chain", n=n))
               for n in (12, 2))
    res = latq.check_involutive_axioms(c12, c2)
    assert res.holds, res.witness
    assert res.info["homset_size"] == 12
    assert not res.info["rotation_checked"]
    # when B^2 alone exceeds ROTATION_CAP, the factor is not enumerated
    calls = []
    real = quantale.enumerate_homset

    def counted(dom, cod, cap=quantale.DEFAULT_CAP):
        calls.append((dom.n, cod.n))
        return real(dom, cod, cap)

    monkeypatch.setattr(quantale, "enumerate_homset", counted)
    monkeypatch.setattr(quantale, "ROTATION_CAP", 12 * 12 - 1)
    res = latq.check_involutive_axioms(c12, c2)
    assert res.holds and not res.info["rotation_checked"]
    assert calls == [(12, 2)]


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


def _axiom_laws_by_gathers(L, M, A, cap):
    """The laws of `check_involutive_axioms` as (law, ok, rows), computed
    as (B, B, n) gathers of every pair's composite, row by row."""
    FA, B = A.matrix, len(A)
    oL = quantale.special(L, "o").values
    oM = quantale.special(M, "o").values
    SA = quantale._batch_raney_join(M, L, A.rho)
    SS = quantale._batch_raney_join(
        L, M, quantale._batch_right_adjoint(M, L, SA))
    yield "double_transform", (SS == FA).all(axis=1), {"f": FA, "twice": SS}

    LE = M.leq[FA[:, None], FA[None]].all(axis=-1)
    T = FA[:, SA]                                   # [i, j] = f_i . s_j
    C1 = M.leq[T, oM[None, None, :]].all(axis=-1)
    U = SA[:, FA]                                   # [j, i] = s_j . f_i
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
    if len(E) * B * B <= quantale.ROTATION_CAP:
        FE, SE = E.matrix, quantale._batch_raney_join(L, L, E.rho)
        for u in range(len(E)):
            Vu = FA[:, FE[u]]
            P1 = M.leq[Vu[:, None], FA[None]].all(axis=-1)
            P2 = L.leq[U.transpose(1, 0, 2), SE[u]].all(axis=-1)
            UW = FE[u][SA]
            P3 = L.leq[UW[None, :, :], SA[:, None, :]].all(axis=-1)
            yield "triangle_rotation", (P1 == P2) & (P1 == P3), {
                "f": FE[u][None, None], "g": FA[:, None], "h": FA[None],
                "compose_below": P1, "rotated_left": P2, "rotated_right": P3}


AXIOM_CASES = [("m3", "m3"), ("n5", "n5"), ("b2", "b2"), ("c4", "c4"),
               ("c3", "r04"), ("c3", "r09")]


@pytest.mark.parametrize("dom, cod", AXIOM_CASES)
def test_axiom_laws_match_the_pair_gathers(corpus, dom, cod):
    named = {L.name: L for L in corpus}
    L, M = named[dom], named[cod]
    A = latq.enumerate_homset(L, M)
    got = list(quantale._axiom_laws(L, M, A, quantale.DEFAULT_CAP, {}))
    want = list(_axiom_laws_by_gathers(L, M, A, quantale.DEFAULT_CAP))
    assert [law for law, *_ in got] == [law for law, *_ in want]
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
    # the formula fail, and the witness is the gathers' first failure
    real = getattr(quantale, kernel)

    def spoiled(dom, cod, F):
        out = real(dom, cod, F).copy()
        bad = F.sum(axis=1) % 3 == 1
        out[bad] = out[bad][:, ::-1]
        return out

    monkeypatch.setattr(quantale, kernel, spoiled)
    for name in ("b2", "c4"):
        L = zoo[name]
        A = latq.enumerate_homset(L, L)
        w = latq.check_involutive_axioms(L, L).witness
        assert w is not None and w["law"] == law, name
        assert w == first_failing_law(
            _axiom_laws_by_gathers(L, L, A, quantale.DEFAULT_CAP)), name


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


def test_reduced_axiom_sweep_matches_the_full_sweep(corpus):
    # every CD endo homset whose full sweep fits the suite's pair cap
    carriers = [L for L in corpus + _bounded_small_lattices()
                if latq.raney_join_criterion(L).holds
                and quantale.homset_estimate(L, L) <= quantale.DEFAULT_CAP]
    swept = 0
    for L in carriers:
        A = latq.enumerate_homset(L, L)
        if len(A) > PAIR_HOMSET_CAP:
            continue
        info = {}
        reduced = first_failing_law(quantale._axiom_laws(
            L, L, A, quantale.DEFAULT_CAP, info, reduced=True))
        full = first_failing_law(quantale._axiom_laws(
            L, L, A, quantale.DEFAULT_CAP, {}))
        assert info["generators"] is not None, L.name
        assert info["pairs"] == info["generators"] ** 2, L.name
        assert (reduced is None) == (full is None), L.name
        swept += 1
    assert swept == 46 + 22


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
        if (quantale.homset_estimate(L, L) > quantale.DEFAULT_CAP
                or len(latq.enumerate_homset(L, L)) > PAIR_HOMSET_CAP):
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


def test_axiom_sweep_on_generators_peak_memory_on_d4_1(corpus):
    # the full sweep over all B^2 pairs peaks at about 3.4 GB on d4_1
    # (B = 7,776); the sweep on its 122 rank-one generators does not
    L = {L.name: L for L in corpus}["d4_1"]
    tracemalloc.start()
    try:
        res = latq.check_involutive_axioms(L, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.holds and res.info["homset_size"] == 7776
    assert res.info["generators"] == 122 and res.info["pairs"] == 122 ** 2
    assert peak <= 32 * 2 ** 20


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

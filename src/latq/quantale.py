"""The quantale of join-continuous endomaps and its quantaloid structure.

Homsets are enumerated as a breadth-first numpy frontier, one level per
join-irreducible of the domain; each minimal binding pair's join is
checked at the first level where its three values are final.
The detectors (cyclic, central, dualizing, codualizing, involutive
axioms) run on the stacked value matrix through the batch kernels in
`maps`, with the single-map operations as their spot-checkable face.
A right residual is a left residual on the order duals: `rho` reverses
composition and the order, so `rho(h / f)` is the least meet-continuous
map above `f . rho(h)`.

The pair sweeps never form a (B, B, n) array of composites.  The
pointwise order and the order-reversal tests `f . g <= zero` are counts
from `maps._pair_kernel`; the axiom sweep's residual formulas and the
cyclic, dualizing and codualizing searches code every composite exactly
(`maps._composite_ids`), run the kernels on the distinct composites
alone (`_on_composites`), and compare results by rank or value.  The
composite codes take 8 bytes a pair.  The axiom sweep runs its pair laws
on the rank-one generators G of an endo homset that they generate, which
is one over a completely distributive lattice, so it holds memory linear
in B there (the one-hot codes of the members, B n^2 floats, and
|G| <= n^2), and O(B^2) on any other homset.  A row's position among
the members comes from ranking both together
(`HomsetEnumeration.positions`), for `position`, `in` and the residuals
of the cyclic and dualizing searches (`_residual_members`): a residual
of members is a member, so residuating twice is a lookup of positions,
and `is_cyclic` and `is_dualizing` are the same pass for one candidate.
The cyclic, central and codualizing searches narrow (`_narrowed`): the
candidates meet the members a block at a time, and each is dropped at
its first failing block; `beta \\ (beta . f)` is the interior of the
composite (rho beta . beta) . f, run once per distinct composite
(`_recovered`).  The dualizing test residuates twice, and the second
residual is read at the position the first one names, anywhere in the
candidate's column; so that search keeps chunks of candidates against
all the members.  No search lists more than the members it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cd import CheckResult, first_failing_law, verdict
from .errors import CapExceeded, DomainMismatch, NotContinuous, NotEndoHomset
from .lattice import Lattice, Poset, build_lattice
from .maps import (
    LatMap,
    _batch_interior,
    _batch_left_adjoint,
    _batch_raney_join,
    _batch_right_adjoint,
    _composite_ids,
    _pair_kernel,
    _rank_rows,
    compose,
    identity,
    interior,
    is_join_continuous,
    raney_join,
    right_adjoint,
    special,
)

DEFAULT_CAP = 1 << 20
ROTATION_CAP = 1 << 20    # triples checked by the triangle rotation
_CHUNK_BYTES = 1 << 23    # a detector chunk's candidates times F.nbytes


class HomsetEnumeration:
    """All join-continuous maps dom -> cod in a canonical order."""

    def __init__(self, dom: Lattice, cod: Lattice, matrix: np.ndarray):
        self.dom = dom
        self.cod = cod
        matrix = np.array(matrix, dtype=np.int32)
        matrix.flags.writeable = False
        self.matrix = matrix

    def __len__(self) -> int:
        return len(self.matrix)

    @cached_property
    def maps(self) -> list[LatMap]:
        return self.members(range(len(self)))

    def members(self, at) -> list[LatMap]:
        """The members at positions at, the rest left unlisted."""
        return [LatMap(self.dom, self.cod, self.matrix[k]) for k in at]

    def __iter__(self):
        return iter(self.maps)

    @cached_property
    def rho(self) -> np.ndarray:
        """Right adjoints of all members, stacked (B, cod.n)."""
        return _batch_right_adjoint(self.dom, self.cod, self.matrix)

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Each row's position among the members, -1 for a non-member."""
        first, (members, ids) = _rank_rows(self.cod.n, self.matrix, rows)
        at = np.full(len(first), -1)   # one slot per distinct row
        at[members] = np.arange(len(self))
        return at[ids]

    def position(self, f: LatMap) -> int:
        if f.dom != self.dom or f.cod != self.cod:
            raise DomainMismatch("map belongs to a different homset")
        k = int(self.positions(f.values[None])[0])
        if k < 0:
            raise NotContinuous("map is not join-continuous for this homset")
        return k

    def __contains__(self, f: LatMap) -> bool:
        return (f.dom == self.dom and f.cod == self.cod
                and self.positions(f.values[None])[0] >= 0)

    def __repr__(self) -> str:
        return f"HomsetEnumeration({self.dom!r} -> {self.cod!r}, {len(self)})"


def homset_estimate(dom: Lattice, cod: Lattice) -> int:
    """Bound cod.n ** |J(dom)| on |Q(dom, cod)|; enumeration is gated on it."""
    return cod.n ** len(dom.join_irreducibles)


def enumerate_homset(dom: Lattice, cod: Lattice,
                     cap: int = DEFAULT_CAP) -> HomsetEnumeration:
    """Exactly the join-continuous maps dom -> cod.

    A breadth-first frontier over the join-irreducibles j_0, j_1, ... of
    dom in toposort order.  At level k every partial row takes, at once,
    each value v at or above its current value at j_k (the join of the
    values already given below j_k), and v is joined into the up-set of
    j_k.  Parents stay in order and values ascend, so the rows come out in
    lexicographic order of their values on J(dom).  Every row so built has
    f(x v y) == f(x) v f(y) except perhaps at a binding pair
    (`Lattice.interior_constraints`, none when dom is distributive).  Only
    the minimal ones are checked (`Lattice.minimal_binding_pairs`): a row
    so built is monotone, so a pair whose join a lower cover keeps holds
    once the smaller pair does.  Each is checked at the level of the last
    join-irreducible below x v y, the first level at which all three
    values are final.
    """
    irr = dom.join_irreducibles
    if homset_estimate(dom, cod) > cap:
        raise CapExceeded(f"estimate {cod.n}^{len(irr)} exceeds cap {cap}")
    xs, ys, zs = dom.minimal_binding_pairs
    ranks = np.arange(len(irr))[:, None]
    level = np.where(dom.leq[list(irr)], ranks, -1).max(axis=0, initial=-1)[zs]
    V = np.full((1, dom.n), cod.bottom, dtype=np.int32)
    for k, j in enumerate(irr):
        parent, v = np.nonzero(cod.leq[V[:, j]])
        V = V[parent]
        span = np.flatnonzero(dom.leq[j])
        V[:, span] = cod.join[V[:, span], v[:, None]]
        now = level == k
        if now.any():
            keep = np.ones(len(V), dtype=bool)
            for x, y, z in zip(xs[now], ys[now], zs[now]):
                keep &= cod.join[V[:, x], V[:, y]] == V[:, z]
            V = V[keep]
    return HomsetEnumeration(dom, cod, V)


@dataclass(frozen=True)
class UnitPair:
    """Composition unit and the dualizing unit of an endo homset."""

    one: LatMap
    zero: LatMap


def units(L: Lattice) -> UnitPair:
    return UnitPair(one=identity(L), zero=special(L, "o"))


def residual_left(g: LatMap, h: LatMap) -> LatMap:
    """Greatest k with g . k <= h, via the interior of adjoint-then-h."""
    if g.cod != h.cod:
        raise DomainMismatch("residual_left needs g.cod == h.cod")
    if not (is_join_continuous(g) and is_join_continuous(h)):
        raise NotContinuous("residuals live among join-continuous maps")
    return interior(compose(right_adjoint(g), h))


def residual_right(h: LatMap, f: LatMap) -> LatMap:
    """Greatest k with k . f <= h.

    k . f <= h exactly when f . rho(h) <= rho(k), so rho(h / f) is the
    least meet-continuous map above f . rho(h) (`_batch_residual_right`).
    """
    if h.dom != f.dom:
        raise DomainMismatch("residual_right needs h.dom == f.dom")
    if not (is_join_continuous(h) and is_join_continuous(f)):
        raise NotContinuous("residuals live among join-continuous maps")
    G = compose(f, right_adjoint(h)).values[None]
    return LatMap(f.cod, h.cod, _batch_residual_right(h.cod, f.cod, G)[0])


def _batch_residual_right(N: Lattice, M: Lattice, G: np.ndarray) -> np.ndarray:
    """Rowwise h / f, maps M -> N, from the rows of G = f . rho(h), maps
    N -> M: the left adjoint of the interior of G between the order duals,
    which is the least meet-continuous map above G."""
    return _batch_left_adjoint(N, M, _batch_interior(N.op, M.op, G))


def star(f: LatMap) -> LatMap:
    """The transform sending f: L -> M to a map M -> L.

    Join transform of the right adjoint; total on any pair of finite
    lattices, an involution exactly over completely distributive ones.
    """
    return raney_join(right_adjoint(f))


def dual_tensor(g: LatMap, f: LatMap) -> LatMap:
    """Co-composition g (+) f = star(star(f) . star(g)) for f: L -> M, g: M -> N.

    Also equals the join transform of meet-transform composition
    (checked in the tests).
    """
    if f.cod != g.dom:
        raise DomainMismatch("dual_tensor needs f.cod == g.dom")
    return star(compose(star(f), star(g)))


def _require_endo(Q: HomsetEnumeration) -> Lattice:
    if Q.dom != Q.cod:
        raise NotEndoHomset("operation needs an endo homset")
    return Q.dom


def _residual_members(Q: HomsetEnumeration, J, K=slice(None)):
    """For members alpha_j, j in J, and f_k, k in K, (left, right) of shape
    (len(K), len(J)): left[k, j] is the position in Q of f_k \\ alpha_j,
    and right[k, j] that of alpha_j / f_k.  The kernels run on the
    distinct composites (`_on_composites`), ranked against the members."""
    L = _require_endo(Q)
    into, i = _on_composites(_batch_interior, L, Q.rho[K], Q.matrix[J])
    over, o = _on_composites(_batch_residual_right, L, Q.matrix[K], Q.rho[J])
    at = Q.positions(np.concatenate([into, over]))
    if (at < 0).any():
        raise NotContinuous("a residual is not a member of this homset")
    return at[i], at[len(into) + o]


def _cyclic(left: np.ndarray, right: np.ndarray):
    """Per pair (k, j), f_k \\ alpha_j == alpha_j / f_k; and the
    positions shown in a witness."""
    return left == right, {"left_residual": left, "right_residual": right}


def _dualizing(left: np.ndarray, right: np.ndarray):
    """Per pair (k, j), residuating into alpha_j twice returns f_k:
    (alpha_j / f_k) \\ alpha_j is left[right[k, j], j], and alpha_j /
    (f_k \\ alpha_j) is right[left[k, j], j]."""
    back1 = np.take_along_axis(left, right, axis=0)
    back2 = np.take_along_axis(right, left, axis=0)
    k = np.arange(len(left))[:, None]
    return (back1 == k) & (back2 == k), {"left_then_right": back1,
                                         "right_then_left": back2}


def _narrowed(Q: HomsetEnumeration, test) -> list[LatMap]:
    """The members c of Q with test(K, C) true at c for every block K of
    member positions, C the candidates still kept: only survivors meet the
    next block.  A block is at least as long as all before it, longer when
    few candidates are left, and len(K) * len(C) rows fit _CHUNK_BYTES."""
    F = Q.matrix
    keep, done = np.arange(len(F)), 0
    while done < len(F) and len(keep):
        step = min(max(1, done, len(F) // len(keep)),
                   max(1, _CHUNK_BYTES // (len(keep) * F[0].nbytes)))
        keep = keep[test(slice(done, done + step), keep)]
        done += step
    return Q.members(keep)


def _one_member(name: str, test, alpha: LatMap,
                Q: HomsetEnumeration) -> CheckResult:
    """test for the one candidate alpha, with its first failing member and
    the rows at the positions test names as the witness."""
    ok, shown = test(*_residual_members(Q, [Q.position(alpha)]))
    return verdict(name, ok[:, 0], {"f": Q.matrix, **{
        key: Q.matrix[at[:, 0]] for key, at in shown.items()}})


def is_cyclic(alpha: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Left and right residuals into alpha agree for every member."""
    return _one_member("cyclic", _cyclic, alpha, Q)


def is_dualizing(alpha: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Residuating into alpha twice returns every member unchanged."""
    return _one_member("dualizing", _dualizing, alpha, Q)


def is_codualizing(beta: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Every member is recovered as beta \\ (beta . member)."""
    _require_endo(Q)
    recovered = _recovered(Q, [Q.position(beta)])[:, 0]
    return verdict("codualizing", (recovered == Q.matrix).all(axis=1),
                   {"x": Q.matrix, "recovered": recovered})


def _recovered(Q: HomsetEnumeration, C, K=slice(None)) -> np.ndarray:
    """(len(K), len(C), n): beta_c \\ (beta_c . f_k) for members beta_c,
    c in C, and f_k, k in K, the interior of (rho beta_c . beta_c) . f_k,
    run on the distinct composites (`_on_composites`)."""
    L = _require_endo(Q)
    R = np.take_along_axis(Q.rho[C], Q.matrix[C], axis=1)
    rows, ids = _on_composites(_batch_interior, L, R, Q.matrix[K])
    return rows[ids.T]


def cyclic_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _narrowed(Q, lambda K, C: _cyclic(
        *_residual_members(Q, C, K))[0].all(axis=0))


def central_elements(Q: HomsetEnumeration) -> list[LatMap]:
    """Members commuting with every member under composition."""
    _require_endo(Q)
    F = Q.matrix
    return _narrowed(Q, lambda K, C: (F[C][:, F[K]] == np.swapaxes(
        F[K][:, F[C]], 0, 1)).all(axis=(1, 2)))


def dualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    """Candidates in chunks of step rows, step * F.nbytes at most
    _CHUNK_BYTES, which bounds a chunk's B * step composites.  The one
    search that does not narrow: its test reads residuals of residuals by
    position, (alpha_j / f_k) \\ alpha_j at left[right[k, j], j], a row
    of the candidate's column that any member may name, so each candidate
    needs its residuals against all the members at once."""
    F = Q.matrix
    step = max(1, _CHUNK_BYTES // max(1, F.nbytes))
    return Q.members(s + k for s in range(0, len(F), step)
                     for k in np.flatnonzero(_dualizing(*_residual_members(
                         Q, slice(s, s + step)))[0].all(axis=0)))


def codualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _narrowed(Q, lambda K, C: (
        _recovered(Q, C, K) == Q.matrix[K, None]).all(axis=(0, 2)))


def cyclic_dualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    """Exhaustive search: cyclic filter first, then the dualizing test."""
    return [f for f in cyclic_elements(Q) if is_dualizing(f, Q).holds]


def _on_composites(kernel, K: Lattice, P: np.ndarray, Q: np.ndarray):
    """kernel(K, K, .) on the distinct rows among the maps P_a . Q_b, into
    K, and ids with out[ids[a, b]] the kernel's row at (a, b); the
    (len(P), len(Q), n) array of all the rows is never formed."""
    first, ids = _composite_ids(P, Q, K.n)
    a, b = np.divmod(first, len(Q))
    return kernel(K, K, P[a[:, None], Q[b]]), ids.reshape(len(P), len(Q))


class _Gathered:
    """rows[ids] for `cd.row_witness`, read one entry at a time rather
    than gathered whole."""

    def __init__(self, rows: np.ndarray, ids: np.ndarray):
        self.rows, self.ids, self.shape = rows, ids, ids.shape

    def __getitem__(self, at) -> np.ndarray:
        return self.rows[self.ids[at]]


def _pointwise_leq(cod: Lattice, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """All-pairs pointwise order: out[i, j] iff row F_i <= row G_j.

    `_pair_kernel` counts the x with F_i(x) not <= G_j(x), from
    W[i, x, v] = [F_i(x) not <= v]; the counts are at most n, which
    float32 holds exactly.
    """
    return _pair_kernel((~cod.leq[F]).astype(np.float32), G) == 0


def _composites_below(K: Lattice, P: np.ndarray, Q: np.ndarray,
                      R: np.ndarray) -> np.ndarray:
    """out[a, b] iff P_a . Q_b <= R pointwise, into K: `_pair_kernel`
    counts the x with P_a(Q_b(x)) not <= R(x)."""
    W = ~K.leq[P[:, None, :], R[None, :, None]]
    return _pair_kernel(W.astype(np.float32), Q) == 0


def _stars(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
    """Rowwise star of maps dom -> cod, as maps cod -> dom."""
    return _batch_raney_join(cod, dom, _batch_right_adjoint(dom, cod, F))


def check_involutive_axioms(L: Lattice, M: Lattice,
                            cap: int = DEFAULT_CAP) -> CheckResult:
    """Involutive-quantaloid laws on the homset of jc maps L -> M.

    Verifies: the transform is an involution; the order-reversal
    biconditional f <= g iff f.g* <= zero_M iff g*.f <= zero_L; both
    residual-via-transform formulas on triangles (L,L,M) and (L,M,M);
    and the triangle rotation over Q(L,L) x Q(L,M)^2 when that triple
    count fits ROTATION_CAP (recorded in .info["rotation_checked"]).  On
    a rectangular homset of B maps the rotation runs only when Q(L,L)
    can be enumerated under cap and |Q(L,L)| * B^2 fits ROTATION_CAP;
    Q(L,L) is not enumerated when B^2 alone exceeds it.
    An endo homset that its rank-one maps generate sweeps the pair laws
    on generators only (`_axiom_laws`); .info["generators"] counts them,
    None on the full sweep, and .info["pairs"] is the pairs each pair law
    swept.  A failure there is reported as the full sweep's first.
    """
    A = enumerate_homset(L, M, cap)
    info = {"homset_size": len(A), "generators": None, "pairs": 0,
            "rotation_checked": False}
    w = first_failing_law(_axiom_laws(L, M, A, cap, info, reduced=True))
    if w is not None and info["generators"] is not None:
        w = first_failing_law(_axiom_laws(L, M, A, cap, info)) or w
    return CheckResult("involutive_axioms", w is None, w, info=info)


def _rank_one_generators(L: Lattice, A: HomsetEnumeration):
    """Positions in the endo homset A of the distinct rank-one maps
    e_{a,b}: x -> b if x is not below a, else bottom, when every member
    is the pointwise join of those below it; else None."""
    E = np.where(~L.leq.T[:, None, :], np.arange(L.n)[:, None], L.bottom)
    G = np.unique(A.positions(E.reshape(L.n * L.n, L.n)))
    if G[0] < 0:
        return None
    FA = A.matrix
    joined = np.full_like(FA, L.bottom)
    for g, below in zip(FA[G], _pointwise_leq(L, FA[G], FA)):
        joined[below] = L.join[joined[below], g]
    return G if (joined == FA).all() else None


def _axiom_laws(L: Lattice, M: Lattice, A: HomsetEnumeration, cap: int,
                info: dict, reduced: bool = False):
    """The laws of `check_involutive_axioms` as (law, ok, rows), in order.

    The pair laws sweep every pair of members, or, when reduced is set
    and the rank-one maps G of an endo homset generate it
    (`_rank_one_generators`, tried once the double transform holds), the
    first argument over G and the second over G*, the stars of G.  That
    is exact on Q = Q(L, L):
    - the star is order-reversing, as rho reverses the order and the
      join transform keeps it; it is an involution once the double
      transform holds, so an anti-automorphism of the lattice Q.  So G*
      meet-generates Q, and a star turns joins into meets and back;
    - joins in Q are pointwise, and composition preserves them in
      either argument, pointwise; residuals turn joins in their
      divisor into meets and keep meets in their numerator;
    - so f <= g, f.g* <= zero and g*.f <= zero each turn joins in f
      and meets in g into "for all", and each side of g \\ h ==
      star(h*.g) and of h / f == star(f.h*) turns joins in g (f) and
      meets in h into meets.  A law that holds on G x G* holds on all
      of Q x Q.
    The double transform and the triangle rotation are not reduced.
    """
    FA = A.matrix
    B = len(A)
    oL = special(L, "o").values
    oM = special(M, "o").values

    SA = _batch_raney_join(M, L, A.rho)               # stars, maps M -> L
    SS = _stars(M, L, SA)
    yield "double_transform", (SS == FA).all(axis=1), {"f": FA, "twice": SS}

    # first arguments X with right adjoints RX; second Y with stars SY
    # and right adjoints RY
    X, RX, Y, SY, RY = FA, A.rho, FA, SA, A.rho
    G = _rank_one_generators(L, A) if reduced and M == L else None
    if G is not None:
        X, RX, Y, SY = FA[G], A.rho[G], SA[G], FA[G]
        RY = _batch_right_adjoint(L, L, Y)
    info["generators"] = None if G is None else len(G)
    info["pairs"] = len(X) * len(Y)

    LE = _pointwise_leq(M, X, Y)                      # f <= g
    C1 = _composites_below(M, X, SY, oM)              # f . g* <= zero_M
    C2 = _composites_below(L, SY, X, oL).T            # g* . f <= zero_L
    yield "order_reversal", (LE == C1) & (LE == C2), {
        "f": X[:, None], "g": Y[None], "leq": LE,
        "right_compose_below_zero": C1, "left_compose_below_zero": C2}

    def formula(names: tuple[str, str], K: Lattice, first, second, ref,
                alt):
        """ref against alt over pairs (a, b) of rows first_a, second_b,
        each given as (rows, ids) with rows[ids[a, b]] its row at (a, b)."""
        (R, i), (S, j) = ref, alt
        _, (r, s) = _rank_rows(K.n, R, S)
        return r[i] == s[j], {
            names[0]: first[:, None], names[1]: second[None],
            "residual": _Gathered(R, i), "via_transform": _Gathered(S, j)}

    def swapped(rows_ids):
        return rows_ids[0], rows_ids[1].T

    # g \ h == star(h* . g) over g in X, h in Y
    yield "left_residual_formula", *formula(
        ("g", "h"), L, X, Y, _on_composites(_batch_interior, L, RX, Y),
        swapped(_on_composites(_stars, L, SY, X)))

    # h / f == star(f . h*) over h in Y, f in X
    yield "right_residual_formula", *formula(
        ("h", "f"), M, Y, X,
        swapped(_on_composites(_batch_residual_right, M, X, RY)),
        swapped(_on_composites(_stars, M, X, SY)))

    E = A if M == L else None
    if E is None and B * B <= ROTATION_CAP:
        try:
            E = enumerate_homset(L, L, cap)
        except CapExceeded:
            pass
    if E is not None and len(E) * B * B <= ROTATION_CAP:
        info["rotation_checked"] = True
        FE = E.matrix
        SE = _batch_raney_join(L, L, E.rho)
        for u in range(len(E)):
            P1 = _pointwise_leq(M, FA[:, FE[u]], FA)      # f_v . e_u <= f_w
            P2 = _composites_below(L, SA, FA, SE[u]).T    # s_w . f_v <= e_u*
            P3 = _pointwise_leq(L, FE[u][SA], SA).T       # e_u . s_w <= s_v
            yield "triangle_rotation", (P1 == P2) & (P1 == P3), {
                "f": FE[u][None, None], "g": FA[:, None], "h": FA[None],
                "compose_below": P1, "rotated_left": P2, "rotated_right": P3}


def homset_lattice(Q: HomsetEnumeration, name: str | None = None) -> Lattice:
    """The homset as a lattice under the pointwise order."""
    leq = _pointwise_leq(Q.cod, Q.matrix, Q.matrix)
    return build_lattice(Poset(leq), name)

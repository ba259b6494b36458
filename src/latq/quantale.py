"""The quantale of join-continuous endomaps and its quantaloid structure.

Homsets are enumerated depth first over numpy blocks of partial rows,
one level per join-irreducible of the domain, each block's head
expanded before its tail, so the rows come out in order; each level's
minimal binding pairs, those whose three values are first final there,
are checked by one vectorised test.  A block fits the chunk budget, and
given a `limit` the enumeration yields at most limit + 1 rows a block
and stops as soon as more than limit members are found.
The detectors (cyclic, central, dualizing, codualizing, involutive
axioms) run on the stacked value matrix through the batch kernels in
`maps`, with the single-map operations as their spot-checkable face.
A right residual is a left residual on the order duals: `rho` reverses
composition and the order, so `rho(h / f)` is the least meet-continuous
map above `f . rho(h)`.

The pair sweeps never form a (B, B, n) array of composites.  Every
order test ANDs packed bit rows (`_pointwise_leq`), a composite below a
map P . Q <= R as Q <= rho P . R (`_composites_below`).  The axiom
sweep's residual formulas and the cyclic, dualizing and codualizing
searches code every composite exactly in int64 (`maps._composite_ids`,
by Horner's rule over gathers of one factor), run the kernels on the
distinct composites alone (`_on_composites`), and compare results by
rank or value.
The axiom check picks its rows from the carriers
(`check_involutive_axioms`): over distributive L and M one family of
|M(L)| |J(M)| + 1 maps a homset, built from them (`_epsilon_maps`),
whatever B, which is exact (`_axiom_laws`); elsewhere the members and
their pairs, O(B^2).  It enumerates Q(L, M) alone.

Each detector (`_cyclic`, `_dualizing`, `_codualizing`, `_central`)
takes candidate positions C and member positions K and gives ok[k, c]
with the rows a witness shows.  A residual of members is a member, so a
residual outside the members refuses Q (`HomsetEnumeration.positions`
looks rows up among the members, sorted once by their bytes, and also
answers `position` and `in`).  Every search narrows (`_narrowed`): the
candidates meet the members a block at a time, and each is dropped at
its first failing block.  Every `is_*` is its detector on one candidate
against all the members.  No search lists more than the members it
returns.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import lattice
from .cd import CheckResult, first_failing_law, verdict
from .errors import (
    CapExceeded,
    DomainMismatch,
    HomsetTooLarge,
    NotContinuous,
    NotEndoHomset,
)
from .lattice import DEFAULT_CAP, Lattice, Poset, _admit, build_lattice
from .maps import (
    LatMap,
    _batch_interior,
    _batch_left_adjoint,
    _batch_raney_join,
    _batch_right_adjoint,
    _composite_ids,
    _rank_rows,
    compose,
    interior,
    is_join_continuous,
    raney_join,
    right_adjoint,
    special,
)


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

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The members' rows as raw bytes, sorted, and their positions."""
        keys = self.matrix.view((np.void, 4 * self.dom.n)).ravel()
        order = np.argsort(keys)
        return keys[order], order

    def positions(self, rows: np.ndarray) -> np.ndarray:
        """Each row's position among the members, -1 for a non-member."""
        keys, order = self._sorted
        rows = np.ascontiguousarray(rows, np.int32).view(keys.dtype).ravel()
        if not len(keys):
            return np.full(len(rows), -1)
        at = np.searchsorted(keys, rows).clip(max=len(keys) - 1)
        return np.where(keys[at] == rows, order[at], -1)

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


def enumerate_homset(dom: Lattice, cod: Lattice, cap: int = DEFAULT_CAP,
                     limit: int | None = None) -> HomsetEnumeration:
    """Exactly the join-continuous maps dom -> cod, refused with
    `CapExceeded` when the bound cod.n ** |J(dom)| on their count exceeds
    cap, and, given a limit, with `HomsetTooLarge` as soon as more than
    limit members are found.  This is the one place that decides whether a
    homset fits: the suite's gates ask it and skip on its refusal.

    Depth first over blocks of partial rows, one level per
    join-irreducible j_0, j_1, ... of dom in toposort order
    (`_level_plan`).  A block at level k expands its head, as many rows
    as fit `lattice._CHUNK_BYTES` (and at most limit + 1 rows, given a
    limit) were each to take all of cod's values, and at least one: each
    row takes, at once, each value v at or above its current value at j_k
    (the join of the values already given below j_k), and v is joined
    into the up-set of j_k.  The tail goes on the stack under the head's
    expansion, so the head's rows are finished first.  Rows stay in order
    and values ascend, so the rows come out in lexicographic order of
    their values on J(dom), whatever the blocks.
    Every row so built is monotone and has f(x v y) == f(x) v f(y) except
    perhaps at a binding pair, so the minimal ones decide
    (`Lattice.minimal_binding_pairs`, none when dom is distributive).
    Each is checked at the level of the last join-irreducible below
    x v y, the first level at which all three values are final.  The
    blocks and the join table are of the smallest unsigned type that
    holds cod's labels (one byte up to 256); the kept blocks are joined
    once, at the end, into the rows `HomsetEnumeration` widens to int32.
    """
    irr = dom.join_irreducibles
    est = cod.n ** len(irr)
    if est > cap:
        raise CapExceeded(f"homset estimate {est} beyond enumeration cap")
    pairs, at = _level_plan(dom)
    join = cod.join.astype(np.min_scalar_type(cod.n - 1))
    # rows a block may expand to: each as wide as dom or a level's pairs
    width = max(dom.n, int(np.diff(at).max(initial=0)))
    most = lattice._CHUNK_BYTES // (width * join.itemsize)
    if limit is not None:
        most = min(most, limit + 1)
    head = max(1, most // cod.n)        # a row yields at most cod.n rows
    stack = [(0, np.full((1, dom.n), cod.bottom, dtype=join.dtype))]
    done, total = [], 0
    while stack:
        k, V = stack.pop()
        if not len(V):
            continue
        if k == len(irr):
            done.append(V)
            total += len(V)
            if limit is not None and total > limit:
                raise HomsetTooLarge(f"homset too large (|Q| > {limit})")
            continue
        j = irr[k]
        span = dom.leq[j]
        parent, v = np.nonzero(cod.leq[V[:head, j]])
        W = V[parent]
        W[:, span] = join[W[:, span], v[:, None]]
        if at[k] < at[k + 1]:
            xs, ys, zs = pairs[:, at[k]:at[k + 1]]
            W = W[(join[W[:, xs], W[:, ys]] == W[:, zs]).all(axis=1)]
        stack += [(k, V[head:]), (k + 1, W)]
    return HomsetEnumeration(dom, cod, np.concatenate(done))


def _level_plan(dom: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """(pairs, at): the minimal binding pairs as the rows xs, ys, zs of
    pairs, sorted by the level that checks them, level k's at
    pairs[:, at[k]:at[k + 1]].  That is the level of the last
    join-irreducible below their join z, in toposort order, the first at
    which all three values are final.  Kept in `dom.derived` when dom has
    binding pairs: a distributive dom, with none, keeps nothing, which
    keeps a run over many domains from holding two arrays for each.  The
    up-set of each join-irreducible is its row of dom.leq."""
    if dom.is_distributive:
        return np.zeros((3, 0), np.intp), np.zeros(
            len(dom.join_irreducibles) + 1, np.intp)
    if "enumerate" not in dom.derived:
        irr = list(dom.join_irreducibles)
        pairs = np.stack(dom.minimal_binding_pairs)
        ranks = np.arange(len(irr))[:, None]
        level = np.where(dom.leq[irr], ranks, -1).max(
            axis=0, initial=-1)[pairs[2]]
        order = np.argsort(level, kind="stable")
        dom.derived["enumerate"] = (pairs[:, order], np.searchsorted(
            level[order], np.arange(len(irr) + 1)))
    return dom.derived["enumerate"]


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


def _left_residuals(Q: HomsetEnumeration, C, K):
    """(rows, ids, at): rows[ids[k, c]] is f_k \\ alpha_c for members f_k,
    k in K, and alpha_c, c in C, the interior of rho f_k . alpha_c run once
    per distinct composite, and at[r] is row r's position among the
    members.  A residual of members is a member, so one outside them
    refuses Q."""
    L = _require_endo(Q)
    rows, ids = _on_composites(_batch_interior, L, Q.rho[K], Q.matrix[C])
    at = Q.positions(rows)
    if (at < 0).any():
        raise NotContinuous("a residual is not a member of this homset")
    return rows, ids, at


def _cyclic(Q: HomsetEnumeration, C, K):
    """Per pair (k, c), f_k \\ alpha_c == alpha_c / f_k, compared by
    position among the members."""
    into, i, at = _left_residuals(Q, C, K)
    over, o = _on_composites(_batch_residual_right, Q.dom, Q.matrix[K],
                             Q.rho[C])
    return at[i] == Q.positions(over)[o], {
        "f": Q.matrix[K, None], "left_residual": _Gathered(into, i),
        "right_residual": _Gathered(over, o)}


def _dualizing(Q: HomsetEnumeration, C, K):
    """Per pair (k, c), alpha_c / (f_k \\ alpha_c) == f_k.

    That one law makes alpha dualizing, (alpha / f) \\ alpha == f ==
    alpha / (f \\ alpha) for every member f: phi(f) = f \\ alpha and
    psi(g) = alpha / g are an antitone Galois connection, g <= phi(f) iff
    f . g <= alpha iff f <= psi(g), so phi psi phi = phi; if psi phi is
    the identity, phi is one-to-one, so onto the finite Q, and then phi
    psi is the identity too.  Each left residual is composed with
    rho alpha_c, and `_batch_residual_right` runs on the distinct rows.
    """
    L = _require_endo(Q)
    rows, ids, _ = _left_residuals(Q, C, K)
    G = rows[ids[:, :, None], Q.rho[C][None]].reshape(-1, L.n)
    first, (g,) = _rank_rows(L.n, G)
    back, g = _batch_residual_right(L, L, G[first]), g.reshape(ids.shape)
    return Q.positions(back)[g] == np.arange(len(Q))[K, None], {
        "f": Q.matrix[K, None], "right_then_left": _Gathered(back, g)}


def _codualizing(Q: HomsetEnumeration, C, K):
    """Per pair (k, c), beta_c \\ (beta_c . f_k) == f_k: the interior of
    the composite (rho beta_c . beta_c) . f_k, run once per distinct
    composite."""
    L = _require_endo(Q)
    R = np.take_along_axis(Q.rho[C], Q.matrix[C], axis=1)
    rows, ids = _on_composites(_batch_interior, L, R, Q.matrix[K])
    return Q.positions(rows)[ids.T] == np.arange(len(Q))[K, None], {
        "x": Q.matrix[K, None], "recovered": _Gathered(rows, ids.T)}


def _central(Q: HomsetEnumeration, C, K):
    """Per pair (k, c), f_k . alpha_c == alpha_c . f_k."""
    _require_endo(Q)
    F = Q.matrix
    return (F[K][:, F[C]] == np.swapaxes(F[C][:, F[K]], 0, 1)).all(
        axis=2), {"f": F[K, None]}


def _narrowed(Q: HomsetEnumeration, test) -> list[LatMap]:
    """The members c of Q with test(K, C) true at c for every block K of
    member positions, C the candidates still kept: only survivors meet
    the next block.  A block is at least as long as all before it, longer
    when few are left, and its len(K) * len(C) rows fit the block budget."""
    F = Q.matrix
    keep, done = np.arange(len(F)), 0
    while done < len(F) and len(keep):
        step = min(max(1, done, len(F) // len(keep)),
                   max(1, lattice._CHUNK_BYTES // (len(keep) * F[0].nbytes)))
        keep = keep[test(slice(done, done + step), keep)]
        done += step
    return Q.members(keep)


def _search(Q: HomsetEnumeration, detector) -> list[LatMap]:
    """The members c with detector(Q, C, K) true at every member k."""
    return _narrowed(Q, lambda K, C: detector(Q, C, K)[0].all(axis=0))


def _one_member(name: str, detector, alpha: LatMap,
                Q: HomsetEnumeration) -> CheckResult:
    """detector for the one candidate alpha against every member; the
    witness is the first failing member and the rows shown there."""
    return verdict(name, *detector(Q, [Q.position(alpha)], slice(None)))


def is_cyclic(alpha: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Left and right residuals into alpha agree for every member."""
    return _one_member("cyclic", _cyclic, alpha, Q)


def is_dualizing(alpha: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Residuating into alpha twice returns every member unchanged."""
    return _one_member("dualizing", _dualizing, alpha, Q)


def is_codualizing(beta: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Every member is recovered as beta \\ (beta . member)."""
    return _one_member("codualizing", _codualizing, beta, Q)


def cyclic_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _search(Q, _cyclic)


def central_elements(Q: HomsetEnumeration) -> list[LatMap]:
    """Members commuting with every member under composition."""
    return _search(Q, _central)


def dualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _search(Q, _dualizing)


def codualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _search(Q, _codualizing)


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

    up[u, x] packs the bits [u <= G_j(x)] over j into uint64 words, the
    pad bits 0, so the AND over x of up[F_i(x), x] has bit j set exactly
    when F_i <= G_j: n gathers of len(G) / 64 words per row of F.  The
    table, and a cod.n * n * len(G) byte temporary, are built over G, so
    the smaller family goes there.
    """
    words = -(-len(G) // 64)
    bits = np.zeros((cod.n, F.shape[1], 64 * words), dtype=bool)
    bits[..., :len(G)] = cod.leq[:, G.T]
    up = np.packbits(bits, axis=-1).view(np.uint64)
    out = up[F[:, 0], 0]
    for x in range(1, F.shape[1]):
        out &= up[F[:, x], x]
    return np.unpackbits(out.view(np.uint8), axis=-1,
                         count=len(G)).view(bool)


def _composites_below(K: Lattice, RP: np.ndarray, Q: np.ndarray,
                      R: np.ndarray) -> np.ndarray:
    """out[a, b, r] iff P_a . Q_b <= R_r, for rows Q_b into K and
    join-continuous P_a with right adjoints RP_a: iff Q_b <= RP_a . R_r,
    that is RP_a . R_r <= Q_b between the duals, bits built over Q."""
    G = RP[:, R].reshape(len(RP) * len(R), Q.shape[1])
    out = _pointwise_leq(K.op, G, Q).reshape(len(RP), len(R), len(Q))
    return out.transpose(0, 2, 1)


def _stars(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
    """Rowwise star of maps dom -> cod, as maps cod -> dom."""
    return _batch_raney_join(cod, dom, _batch_right_adjoint(dom, cod, F))


def check_involutive_axioms(L: Lattice, M: Lattice,
                            cap: int = DEFAULT_CAP) -> CheckResult:
    """Involutive-quantaloid laws on the homset of jc maps L -> M.

    Verifies: the transform is an involution; the order-reversal
    biconditional f <= g iff f.g* <= zero_M iff g*.f <= zero_L; both
    residual-via-transform formulas on triangles (L,L,M) and (L,M,M);
    and, over distributive L and M, the triangle rotation
    f.e <= g iff g*.f <= e* iff e.g* <= f* over Q(L,L) x Q(L,M)^2.
    Q(L, M), enumerated under cap, is the only homset enumerated;
    .info["homset_size"] is its size.  Over distributive L and M, endo or
    rectangular, every law runs on the maps eps_{t,b} of Q(L, M), Q(M, L)
    and Q(L, L) (`_epsilon_maps`; `_axiom_laws` holds the proof), and
    .info["generators"] counts those of Q(L, M), |M(L)| |J(M)| + 1.  They
    are members, so a failure on them is reported as found.  Elsewhere
    the laws run on every member and every pair of members,
    .info["generators"] is None and the rotation is not run.
    .info["pairs"] is the pairs each pair law swept.
    """
    A = enumerate_homset(L, M, cap)
    info = {"homset_size": len(A), "generators": None, "pairs": 0}
    if L.is_distributive and M.is_distributive:
        del A                       # only its size is read: free it first
        X, H = _epsilon_maps(L, M), _epsilon_maps(M, L)
        info["generators"] = len(X)
    else:
        X, H = A.matrix, None
    w = first_failing_law(_axiom_laws(L, M, X, H, info))
    return CheckResult("involutive_axioms", w is None, w, info=info)


def _epsilon_maps(L: Lattice, M: Lattice) -> np.ndarray:
    """The maps eps_{t,b}: x -> b where x not<= t, else bottom, for t in
    M(L) and b in J(M), the zero map first: |M(L)| |J(M)| + 1 distinct
    members of Q(L, M) on every L (`_axiom_laws`)."""
    t = list(L.op.join_irreducibles)
    b = np.array(M.join_irreducibles, dtype=np.int32)[:, None]
    E = np.where(~L.leq[:, t].T[:, None, :], b, M.bottom).reshape(-1, L.n)
    return np.vstack([np.full((1, L.n), M.bottom, dtype=np.int32), E])


def _axiom_laws(L: Lattice, M: Lattice, X: np.ndarray, H, info: dict):
    """The laws of `check_involutive_axioms` on the given rows, as
    (law, ok, rows), in order.

    The double transform runs on X, maps L -> M, and on H, maps M -> L,
    unless M == L, where H is X.  The first argument of each pair law
    runs over X and the second over Y, the stars of H.  With H None, Y is
    X and the stars of X serve as H.  With H given, the triangle rotation
    runs last, over f in X, e in E = `_epsilon_maps(L, L)` and g in Y.

    On the members of A = Q(L, M), with H None, these are the laws
    themselves.  Write eps_{t,b} for x -> b where x not<= t, else
    bottom.  On the eps_{t,b} with t in M(L) and b in J(M), X of A, H of
    D = Q(M, L) and E of Q(L, L) (`_epsilon_maps`), they are exact once
    (a) L and M are distributive.  Every eps_{t,b} is a member on any
    carriers, and so is every star in Y, as x v y not<= t exactly when
    x not<= t or y not<= t; a law failing on the rows fails on the
    homsets.  The double transform runs first, and once it holds (b) on
    X and (c) on H, a law holding on the rows holds on all the homsets:
    - (d) X generates A, and H generates D, under pointwise joins: a
      member f is the join of the eps_{kappa(p),q} with p in J(L),
      q in J(M) and q <= f(p).  Each p in J(L) of the distributive L is
      join-prime, so p <= x exactly when x not<= kappa(p), the greatest
      t with p not<= t.  It is in M(L): p lies below each element above
      it, so it is no meet of two of them.  So eps_{kappa(p),q} takes x
      to q, below f(p) <= f(x), where p <= x, else bottom; and f(x) is
      the join of the f(p) with p <= x in J(L), each the join of the
      q <= f(p) in J(M).  H generates D likewise.
    - Deflation: f** <= f for every join-continuous f between finite
      lattices.  Let x not<= s and f*(y) <= s.  If y not<= f(x), then
      rho f(f(x)) <= f*(y) <= s, as f*(y) is the join of the rho f(t)
      with y not<= t; and x <= rho f(f(x)), so x <= s, which is false.
      So every such y is below f(x), so rho(f*)(s) <= f(x), and
      f**(x) <= f(x).
    - The star is order-reversing, as rho reverses the order and the
      join transform keeps it.  So for a member f of A and each e in X
      below f, f* <= e* and e = e** <= f**, by (b); by (d) f <= f**, and
      by deflation f** = f.  So the double transform holds on all of A,
      and by (c) likewise on all of D.  The stars A -> D and D -> A are
      then inverse bijections, so anti-isomorphisms, and turn joins into
      meets and back.  So Y meet-generates A, and Y* = H.
    - Joins in a homset are pointwise, and composition preserves them in
      either argument, pointwise; residuals turn joins in their divisor
      into meets and keep meets in their numerator.
    - The formulas also star maps of Q(L, L) and Q(M, M), and the
      rotation those of Q(L, L).  Over a distributive K the star of
      Q(K, K) turns joins into meets, as by (d) every member is a join
      of maps eps_{c,b}.  The star of eps_{c,b} is bottom at bottom, c
      on the rest of the down-set of b and top off it.  For any family,
      rho(join_j eps_{c_j,b_j}) takes t to the meet of the c_j with
      b_j not<= t, which rises with t, and x not<= t exactly when
      t <= kappa(p) for some p <= x in J(K), so
      star(join_j eps_{c_j,b_j}) takes x to the join over those p of the
      meet of the c_j with p <= b_j.  The pointwise meet of the stars of
      the eps_{c_j,b_j} rises with x and takes each p to that meet, and a
      map taking x to a join over the p <= x is join-continuous, each p
      being join-prime, so this is the greatest join-continuous map
      below it: their meet in Q(K, K).
    - So f <= g, f.g* <= zero and g*.f <= zero each turn joins in f
      and meets in g into "for all", and each side of g \\ h ==
      star(h*.g), in Q(L, L), and of h / f == star(f.h*), in Q(M, M),
      turns joins in g (f) and meets in h into meets.  A pair law that
      holds on X x Y holds on all of A x A.
    - Each side of the rotation, f.e <= g, g*.f <= e* and e.g* <= f*,
      turns joins in e and in f, and meets in g, into "for all": a
      composite with a join is the join of the composites, a map is
      below a meet exactly when it is below each part, and the star
      turns joins in e and f into meets and meets in g into joins.  So
      the rotation holds on Q(L, L) x A x A once it holds on E x X x Y.
    - P.Q <= R is Q <= rho P.R for join-continuous P, as P(y) <= z iff
      y <= rho P(z) (`_composites_below`).  Each P is: X and H pass the
      double transform first (H is X when M == L), and f** is a join
      transform; with H None, H is the stars of X; E is `_epsilon_maps`.
    """
    oL = special(L, "o").values
    oM = special(M, "o").values

    RX = _batch_right_adjoint(L, M, X)
    SX = _batch_raney_join(M, L, RX)                  # stars, maps M -> L
    RS = _batch_right_adjoint(M, L, SX)
    twice = _batch_raney_join(L, M, RS)
    yield "double_transform", (twice == X).all(axis=1), {
        "f": X, "twice": twice}

    # second arguments Y, with stars H; RY and RH are their right adjoints
    if H is None:
        H, RH, Y, RY = SX, RS, X, RX
    else:
        RH = _batch_right_adjoint(M, L, H)
        Y = _batch_raney_join(L, M, RH)
        RY = _batch_right_adjoint(L, M, Y)
        if M != L:
            twice = _batch_raney_join(M, L, RY)
            yield "double_transform", (twice == H).all(axis=1), {
                "f": H, "twice": twice}
    info["pairs"] = len(X) * len(Y)

    LE = _pointwise_leq(M, X, Y)                      # f <= g
    C1 = _pointwise_leq(L, H, RX[:, oM]).T            # f . g* <= zero_M
    C2 = _pointwise_leq(M, X, RH[:, oL])              # g* . f <= zero_L
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
        swapped(_on_composites(_stars, L, H, X)))

    # h / f == star(f . h*) over h in Y, f in X
    yield "right_residual_formula", *formula(
        ("h", "f"), M, Y, X,
        swapped(_on_composites(_batch_residual_right, M, X, RY)),
        swapped(_on_composites(_stars, M, X, H)))

    if Y is X:                      # H was None: the members, no rotation
        return
    E = _epsilon_maps(L, L)
    RE = _batch_right_adjoint(L, L, E)
    # f . e <= g, g* . f <= e* and e . g* <= f*, each as [f, e, g]
    P1 = _composites_below(L, RX, E, Y)
    P2 = _composites_below(M, RH, X, _batch_raney_join(L, L, RE)).transpose(
        1, 2, 0)
    P3 = _composites_below(L, RE, H, SX).transpose(2, 0, 1)
    yield "triangle_rotation", (P1 == P2) & (P1 == P3), {
        "f": X[:, None, None], "e": E[None, :, None], "g": Y[None, None],
        "compose_below": P1, "rotated_left": P2, "rotated_right": P3}


def homset_lattice(Q: HomsetEnumeration) -> Lattice:
    """The homset as a lattice under the pointwise order, refused before
    that order is built when the members are more than a carrier may
    hold."""
    _admit(len(Q))
    return build_lattice(Poset(_pointwise_leq(Q.cod, Q.matrix, Q.matrix)))

"""The quantale of join-continuous endomaps and its quantaloid structure.

Homsets are enumerated as a breadth-first numpy frontier, one level per
join-irreducible of the domain; each binding pair's join is checked at the
first level where its three values are final.
The detectors (cyclic, central, dualizing, codualizing, involutive
axioms) run on the stacked value matrix through the batch kernels in
`maps`, with the single-map operations as their spot-checkable face.
The cyclic and dualizing searches take the candidates in chunks, each
chunk's residuals against every member in one kernel call.  A right
residual is a left residual on the order duals: `rho` reverses
composition and the order, so `rho(h / f)` is the least meet-continuous
map above `f . rho(h)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cd import CheckResult, row_witness
from .errors import CapExceeded, DomainMismatch, NotContinuous, NotEndoHomset
from .lattice import Lattice, Poset, build_lattice
from .maps import (
    LatMap,
    _batch_interior,
    _batch_left_adjoint,
    _batch_raney_join,
    _batch_right_adjoint,
    _once_per_distinct_row,
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
_CHUNK_BYTES = 1 << 23    # one residual array of a detector chunk, in bytes


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
    def index(self) -> dict[bytes, int]:
        """Position of each member by its value bytes."""
        return {row.tobytes(): k for k, row in enumerate(self.matrix)}

    @cached_property
    def maps(self) -> list[LatMap]:
        return [LatMap(self.dom, self.cod, row) for row in self.matrix]

    def __iter__(self):
        return iter(self.maps)

    @cached_property
    def rho(self) -> np.ndarray:
        """Right adjoints of all members, stacked (B, cod.n)."""
        return _batch_right_adjoint(self.dom, self.cod, self.matrix)

    def position(self, f: LatMap) -> int:
        if f.dom != self.dom or f.cod != self.cod:
            raise DomainMismatch("map belongs to a different homset")
        k = self.index.get(f.key)
        if k is None:
            raise NotContinuous("map is not join-continuous for this homset")
        return k

    def __contains__(self, f: LatMap) -> bool:
        return f.dom == self.dom and f.cod == self.cod and f.key in self.index

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
    (`Lattice.interior_constraints`, none when dom is distributive), and
    each of those is checked at the level of the last join-irreducible
    below x v y, the first level at which all three values are final.
    """
    irr = dom.join_irreducibles
    if homset_estimate(dom, cod) > cap:
        raise CapExceeded(f"estimate {cod.n}^{len(irr)} exceeds cap {cap}")
    xs, ys, zs = dom.interior_constraints
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


@_once_per_distinct_row
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


def _residual_rows(Q: HomsetEnumeration, A: np.ndarray):
    """For rows alpha_j of A, (f_k \\ alpha_j, alpha_j / f_k) over the
    members f_k of Q, each as a (len(A), len(Q), n) array, and the right
    adjoints of the rows of A."""
    L = _require_endo(Q)
    rho_A = _batch_right_adjoint(L, L, A)
    shape = (len(A), len(Q), L.n)
    into = _batch_interior(L, L, Q.rho[:, A].swapaxes(0, 1).reshape(-1, L.n))
    over = _batch_residual_right(
        L, L, Q.matrix[:, rho_A].swapaxes(0, 1).reshape(-1, L.n))
    return into.reshape(shape), over.reshape(shape), rho_A


def _residuals_twice(Q: HomsetEnumeration, A: np.ndarray):
    """For rows alpha_j of A, ((alpha_j / f_k) \\ alpha_j, alpha_j /
    (f_k \\ alpha_j)) over the members f_k of Q, shaped as in
    `_residual_rows`."""
    L = Q.dom
    into, over, rho_A = _residual_rows(Q, A)
    # (alpha_j / f_k) \ alpha_j is the interior of rho(alpha_j / f_k) . alpha_j
    rho = _batch_right_adjoint(L, L, over.reshape(-1, L.n)).reshape(over.shape)
    j = np.arange(len(A))[:, None, None]
    k = np.arange(len(Q))[None, :, None]
    back1 = _batch_interior(L, L, rho[j, k, A[:, None, :]].reshape(-1, L.n))
    back2 = _batch_residual_right(
        L, L, into[j, k, rho_A[:, None, :]].reshape(-1, L.n))
    return back1.reshape(over.shape), back2.reshape(over.shape)


def _members_where(Q: HomsetEnumeration, verdicts) -> list[LatMap]:
    """The members alpha of Q for which verdicts(Q, A) is True, with A the
    members' rows in chunks of at most _CHUNK_BYTES of residual rows."""
    F = Q.matrix
    step = max(1, _CHUNK_BYTES // max(1, F.nbytes))
    keep = [verdicts(Q, F[s:s + step]) for s in range(0, len(F), step)]
    return [Q.maps[k] for k in np.flatnonzero(np.concatenate(keep))]


def _cyclic(Q: HomsetEnumeration, A: np.ndarray) -> np.ndarray:
    into, over, _ = _residual_rows(Q, A)
    return (into == over).all(axis=(1, 2))


def _dualizing(Q: HomsetEnumeration, A: np.ndarray) -> np.ndarray:
    back1, back2 = _residuals_twice(Q, A)
    F = Q.matrix[None]
    return ((back1 == F) & (back2 == F)).all(axis=(1, 2))


def is_cyclic(alpha: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Left and right residuals into alpha agree for every member."""
    Q.position(alpha)
    into, over, _ = _residual_rows(Q, alpha.values[None])
    w = row_witness((into[0] == over[0]).all(axis=1), {
        "f": Q.matrix, "left_residual": into[0], "right_residual": over[0]})
    return CheckResult("cyclic", w is None, w)


def is_dualizing(alpha: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Residuating into alpha twice returns every member unchanged."""
    Q.position(alpha)
    back1, back2 = _residuals_twice(Q, alpha.values[None])
    F = Q.matrix
    w = row_witness(((back1[0] == F) & (back2[0] == F)).all(axis=1), {
        "f": F, "left_then_right": back1[0], "right_then_left": back2[0]})
    return CheckResult("dualizing", w is None, w)


def is_codualizing(beta: LatMap, Q: HomsetEnumeration) -> CheckResult:
    """Every member is recovered as beta \\ (beta . member)."""
    L = _require_endo(Q)
    Q.position(beta)
    F = Q.matrix
    rho_b = right_adjoint(beta).values
    recovered = _batch_interior(L, L, rho_b[beta.values[F]])
    w = row_witness((recovered == F).all(axis=1),
                    {"x": F, "recovered": recovered})
    return CheckResult("codualizing", w is None, w)


def cyclic_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _members_where(Q, _cyclic)


def central_elements(Q: HomsetEnumeration) -> list[LatMap]:
    """Members commuting with every member under composition."""
    _require_endo(Q)
    F = Q.matrix
    keep = np.arange(len(F))
    for f in F:
        C = F[keep]
        keep = keep[(C[:, f] == f[C]).all(axis=1)]
    return [Q.maps[k] for k in keep]


def dualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    return _members_where(Q, _dualizing)


def codualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    _require_endo(Q)
    return [f for f in Q.maps if is_codualizing(f, Q).holds]


def cyclic_dualizing_elements(Q: HomsetEnumeration) -> list[LatMap]:
    """Exhaustive search: cyclic filter first, then the dualizing test."""
    return [f for f in cyclic_elements(Q) if is_dualizing(f, Q).holds]


def _pointwise_leq(cod: Lattice, F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """All-pairs pointwise order: out[i, j] iff row F_i <= row G_j.

    One matrix product of one-hot codes instead of a (B, B, n) gather:
    X[i, x*m + v] = [F_i(x) = v] and Z[j, x*m + v] = [v not <= G_j(x)],
    so (X Z^T)[i, j] counts the x with F_i(x) not <= G_j(x).  The counts
    are at most n, which float32 holds exactly.
    """
    width = F.shape[1] * cod.n
    X = np.eye(cod.n, dtype=np.float32)[F].reshape(len(F), width)
    Z = (~cod.leq.T[G]).astype(np.float32).reshape(len(G), width)
    return (X @ Z.T) == 0


def check_involutive_axioms(L: Lattice, M: Lattice,
                            cap: int = DEFAULT_CAP) -> CheckResult:
    """Involutive-quantaloid laws on the homset of jc maps L -> M.

    Verifies: the transform is an involution; the order-reversal
    biconditional f <= g iff f.g* <= zero_M iff g*.f <= zero_L; both
    residual-via-transform formulas on triangles (L,L,M) and (L,M,M);
    and the triangle rotation over Q(L,L) x Q(L,M)^2 when that triple
    count fits ROTATION_CAP (recorded in .info["rotation_checked"]).
    """

    def done(holds: bool, witness=None) -> CheckResult:
        return CheckResult("involutive_axioms", holds, witness, info=info)

    A = enumerate_homset(L, M, cap)
    FA = A.matrix
    B = len(A)
    info: dict[str, object] = {"homset_size": B, "rotation_checked": False}
    oL = special(L, "o").values
    oM = special(M, "o").values

    SA = _batch_raney_join(M, L, A.rho)               # stars, maps M -> L
    SS = _batch_raney_join(L, M, _batch_right_adjoint(M, L, SA))
    w = row_witness((SS == FA).all(axis=1), {"f": FA, "twice": SS})
    if w:
        return done(False, {"law": "double_transform", **w})

    LE = _pointwise_leq(M, FA, FA)                    # f_i <= f_j
    T = FA[:, SA]                                     # [i, j, y] = (f_i . s_j)(y)
    C1 = M.leq[T, oM[None, None, :]].all(axis=-1)     # f_i . s_j <= zero_M
    U = SA[:, FA]                                     # [j, i, x] = (s_j . f_i)(x)
    C2 = L.leq[U, oL[None, None, :]].all(axis=-1).T   # s_j . f_i <= zero_L
    w = row_witness((LE == C1) & (LE == C2), {
        "f": FA[:, None], "g": FA[None], "leq": LE,
        "right_compose_below_zero": C1, "left_compose_below_zero": C2})
    if w:
        return done(False, {"law": "order_reversal", **w})

    def formula_witness(law: str, names: tuple[str, str], K: Lattice,
                        ref: np.ndarray, X: np.ndarray) -> dict | None:
        """ref, over pairs (a, b) flattened, against the stars of the rows
        of X, flattened as (b, a); the first pair that differs."""
        ref = ref.reshape(B, B, K.n)
        alt = _batch_raney_join(K, K, _batch_right_adjoint(K, K, X))
        alt = alt.reshape(B, B, K.n).swapaxes(0, 1)
        w = row_witness((ref == alt).all(axis=-1), {
            names[0]: FA[:, None], names[1]: FA[None],
            "residual": ref, "via_transform": alt})
        return w and {"law": law, **w}

    # g \ h == star(h* . g) over pairs g, h from Q(L, M); U is [h, g]
    w = formula_witness(
        "left_residual_formula", ("g", "h"), L,
        _batch_interior(L, L, A.rho[:, FA].reshape(B * B, L.n)),
        U.reshape(B * B, L.n))
    if w:
        return done(False, w)

    # h / f == star(f . h*) over pairs h, f from Q(L, M); T is [f, h]
    w = formula_witness(
        "right_residual_formula", ("h", "f"), M,
        _batch_residual_right(M, M, FA[:, A.rho].swapaxes(0, 1).reshape(
            B * B, M.n)),
        T.reshape(B * B, M.n))
    if w:
        return done(False, w)

    E = A if M == L else enumerate_homset(L, L, cap)
    if len(E) * B * B <= ROTATION_CAP:
        info["rotation_checked"] = True
        FE = E.matrix
        SE = _batch_raney_join(L, L, E.rho)
        WV = U.transpose(1, 0, 2)                     # [v, w, x] = (s_w . f_v)(x)
        for u in range(len(E)):
            Vu = FA[:, FE[u]]                         # [v, x] = (f_v . e_u)(x)
            P1 = _pointwise_leq(M, Vu, FA)            # e-compose below w
            P2 = L.leq[WV, SE[u][None, None, :]].all(axis=-1)
            UW = FE[u][SA]                            # [w, y] = (e_u . s_w)(y)
            P3 = L.leq[UW[None, :, :], SA[:, None, :]].all(axis=-1)
            w = row_witness((P1 == P2) & (P1 == P3), {
                "f": FE[u][None, None], "g": FA[:, None], "h": FA[None],
                "compose_below": P1, "rotated_left": P2, "rotated_right": P3})
            if w:
                return done(False, {"law": "triangle_rotation", **w})
    return done(True)


def homset_lattice(Q: HomsetEnumeration, name: str | None = None) -> Lattice:
    """The homset as a lattice under the pointwise order."""
    leq = _pointwise_leq(Q.cod, Q.matrix, Q.matrix)
    return build_lattice(Poset(leq), name)

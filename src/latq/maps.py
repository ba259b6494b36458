"""Maps between finite lattices and the transforms acting on them.

A `LatMap` stores one value index per domain element.  The module keeps
one implementation of each nontrivial algorithm as a batch kernel over a
(B, n) value matrix; single-map operations wrap the kernels with B = 1,
and the bulk detectors in `quantale` reuse them directly.  Each meet-side
operation is its join-side twin run between the order duals (`_op`).

Rows are told apart by exact ranks (`_row_ids`): a run of columns is
coded as sum of row[x] * base ** x, and `_dedup` ranks the codes with
one sort of (code << k) | position keys, where np.unique would take
three times as long.  A row too wide for one code is ranked run by run,
each run's codes appended to the ranks of the columns above it.  The
kernels rank nothing: each computes a row from that row alone, and most
callers' rows are distinct already.  Callers whose rows repeat rank
them through `_rank_rows`, several blocks at once (T10's left factors
and point keys, `HomsetEnumeration.positions`, the axiom sweep's
formulas), or as composites through `_composite_ids`
(`quantale._on_composites`, below).

The pair sweeps in `quantale` rest on one pair kernel, `_pair_kernel`:
out[a, b] = sum over x of W[a, x, F[b, x]], one matrix product with the
one-hot codes of F.  With W a table of "not below", it counts the points
where one map is not below another; with W[a, x, v] = P[a, v] * base ** x
it gives the code of every composite P_a . Q_b (`_composite_ids`), so a
sweep runs its kernels on the distinct composites without ever forming
the (len(P), len(Q), n) array of them.

Families are folded through a join or meet table by `lattice._fold`.
The sampler draws all its rows at once, one domain element at a time,
from an up-set table built once per call (`_upsets`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapExceeded, DomainMismatch, IndexOutOfRange, NotContinuous
from .lattice import Lattice, _fold, _frozen


@dataclass(frozen=True)
class MapClass:
    monotone: bool
    join_continuous: bool
    meet_continuous: bool


class LatMap:
    """Function between lattice carriers, as an int index array."""

    __slots__ = ("dom", "cod", "values", "_key")

    def __init__(self, dom: Lattice, cod: Lattice, values):
        values = np.asarray(values)     # range-checked before the int32 cast
        if values.shape != (dom.n,):
            raise DomainMismatch(
                f"expected {dom.n} values, got shape {values.shape}"
            )
        # bool and float are refused; ints past int64 come as objects
        if values.dtype.kind not in "iu" and not all(
                type(v) is int for v in values.tolist()):
            raise IndexOutOfRange(f"values must be integers, not {values.dtype}")
        if values.size and (values.min() < 0 or values.max() >= cod.n):
            raise IndexOutOfRange("value outside the codomain carrier")
        self.dom = dom
        self.cod = cod
        self.values = _frozen(values.astype(np.int32))
        self._key: bytes | None = None

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.dom.n:
            raise IndexOutOfRange(f"{x} outside range({self.dom.n})")
        return int(self.values[x])

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._key = self.values.tobytes()
        return self._key

    def same_hom(self, other: "LatMap") -> bool:
        return self.dom == other.dom and self.cod == other.cod

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LatMap)
            and self.same_hom(other)
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __le__(self, other: "LatMap") -> bool:
        """Pointwise order within one homset."""
        if not isinstance(other, LatMap) or not self.same_hom(other):
            raise DomainMismatch("pointwise order needs a shared homset")
        return bool(self.cod.leq[self.values, other.values].all())

    def __repr__(self) -> str:
        return f"LatMap({self.values.tolist()})"


def identity(L: Lattice) -> LatMap:
    return LatMap(L, L, np.arange(L.n, dtype=np.int32))


def is_monotone(f: LatMap) -> bool:
    v = f.values
    return bool((~f.dom.leq | f.cod.leq[v[:, None], v[None, :]]).all())


def is_join_continuous(f: LatMap) -> bool:
    """Preserves the empty join and all binary joins."""
    v = f.values
    return bool(
        v[f.dom.bottom] == f.cod.bottom
        and (v[f.dom.join] == f.cod.join[v[:, None], v[None, :]]).all()
    )


def is_meet_continuous(f: LatMap) -> bool:
    """Preserves the empty meet and all binary meets."""
    return is_join_continuous(_op(f))


def classify(f: LatMap) -> MapClass:
    return MapClass(is_monotone(f), is_join_continuous(f), is_meet_continuous(f))


def _op(f: LatMap) -> LatMap:
    """The same values between the order duals; joins and meets swap roles."""
    return LatMap(f.dom.op, f.cod.op, f.values)


def compose(g: LatMap, f: LatMap) -> LatMap:
    """g after f."""
    if f.cod != g.dom:
        raise DomainMismatch("compose needs f.cod == g.dom")
    return LatMap(f.dom, g.cod, g.values[f.values])


def _common_hom(fs: Sequence[LatMap]) -> tuple[Lattice, Lattice]:
    dom, cod = fs[0].dom, fs[0].cod
    for f in fs[1:]:
        if f.dom != dom or f.cod != cod:
            raise DomainMismatch("family must share one homset")
    return dom, cod


def pointwise_join(fs: Sequence[LatMap],
                   dom: Lattice | None = None,
                   cod: Lattice | None = None) -> LatMap:
    """Pointwise join; the empty family needs explicit endpoints."""
    fs = list(fs)
    if not fs:
        if dom is None or cod is None:
            raise DomainMismatch("empty family needs dom and cod")
        return LatMap(dom, cod, np.full(dom.n, cod.bottom, dtype=np.int32))
    dom, cod = _common_hom(fs)
    return LatMap(dom, cod, _fold(cod.join, np.stack([f.values for f in fs], -1)))


def pointwise_meet(fs: Sequence[LatMap],
                   dom: Lattice | None = None,
                   cod: Lattice | None = None) -> LatMap:
    """Pointwise meet; the empty family needs explicit endpoints."""
    fs_op = [_op(f) for f in fs]
    return _op(pointwise_join(fs_op, dom and dom.op, cod and cod.op))


# ---------------------------------------------------------------- kernels


def _pair_kernel(W: np.ndarray, F: np.ndarray) -> np.ndarray:
    """out[a, b] = sum over x of W[a, x, F[b, x]], for W of shape (A, n, m)
    and F of shape (B, n) with entries below m: one matrix product of W
    with the one-hot codes of F, in W's dtype."""
    A, n, m = W.shape
    onehot = np.eye(m, dtype=W.dtype)[F].reshape(len(F), n * m)
    return W.reshape(A, n * m) @ onehot.T


def _dedup(codes: np.ndarray):
    """np.unique(codes, return_index=True, return_inverse=True) for a flat
    array of nonnegative int64 codes below 2 ** (63 - N.bit_length()), N
    the number of codes: one sort of the keys (code << k) | position."""
    k = len(codes).bit_length()
    keys = np.sort((codes << k) | np.arange(len(codes)))
    at, codes = keys & ((1 << k) - 1), keys >> k
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[at] = np.repeat(np.arange(len(starts)),
                            np.diff(starts, append=len(keys)))
    return codes[starts], at[starts], inverse


def _row_ids(codes: Callable[[int, int], np.ndarray], width: int, base: int,
             N: int):
    """(first, ids) over N rows of the given width with entries below base:
    ids[r] ranks row r's values as np.unique ranks the codes sum of
    row[x] * base ** x, and first[i] is the first row of rank i.

    codes(lo, hi) gives each row's code over columns lo..hi-1 alone, and is
    asked only for runs with base ** (hi - lo) <= 2 ** 53.  The runs are
    taken from the last column down, each as wide as the ranks so far
    times its codes fit `_dedup`, and each run's codes are appended to the
    ranks of the columns above it; so every code is exact at any width.
    """
    ids = np.zeros(N, dtype=np.int64)
    first, count, hi = np.zeros(min(N, 1), dtype=np.int64), 1, width
    while hi > 0:
        room = min(53, 63 - N.bit_length() - (count - 1).bit_length())
        lo = hi - 1
        while lo > 0 and base ** (hi - lo + 1) <= 1 << room:
            lo -= 1
        if base ** (hi - lo) > 1 << room:
            raise CapExceeded(f"{N} rows are too many to rank exactly")
        distinct, first, ids = _dedup(ids * base ** (hi - lo) + codes(lo, hi))
        count, hi = len(distinct), lo
    return first, ids


def _rank_rows(base: int, *blocks: np.ndarray):
    """`_row_ids` over the stacked rows of (B_i, n) blocks of entries below
    base: first indexes the stack, and ids holds each block's ranks."""
    ends = list(itertools.accumulate(map(len, blocks), initial=0))
    first, ids = _row_ids(lambda lo, hi: np.concatenate([
        F[:, lo:hi] @ base ** np.arange(hi - lo, dtype=np.int64)
        for F in blocks]), blocks[0].shape[1], base, ends[-1])
    return first, [ids[a:b] for a, b in zip(ends, ends[1:])]


def _composite_ids(P: np.ndarray, Q: np.ndarray, base: int):
    """`_row_ids` over the rows P_a . Q_b, for (a, b) in row-major order,
    from P of shape (A, m) with entries below base and Q of shape (B, n)
    with entries below m, without forming them: the code of a run of
    columns is `_pair_kernel` with W[a, x, v] = P[a, v] * base ** x."""
    P = P.astype(np.float64)

    def codes(lo: int, hi: int) -> np.ndarray:
        W = P[:, None, :] * float(base) ** np.arange(hi - lo)[:, None]
        return _pair_kernel(W, Q[:, lo:hi]).astype(np.int64).ravel()

    return _row_ids(codes, Q.shape[1], base, len(P) * len(Q))


def _batch_interior(dom: Lattice, cod: Lattice, H: np.ndarray) -> np.ndarray:
    """Greatest pointwise-below join-continuous maps, rowwise.

    A jc map is fixed by its values on J(dom).  Each pass takes, for each
    j in J(dom), the meet of the row over the up-set of j, and rebuilds the
    row by joining it into that up-set, as `quantale.enumerate_homset`
    builds rows; then it meets each binding pair's join value with the join
    of its members' values.  Other pairs hold on a rebuilt row, so passes
    stop once that step changes nothing, after one on a distributive
    domain.  No step drops a jc map below the start row, so the limit is
    the greatest.  The step meets over `Lattice.minimal_binding_pairs`
    only: a rebuilt row is monotone, so a pair whose join a lower cover
    keeps has a join value at or above the smaller pair's, and leaving it
    out changes no meet.
    """
    ups = [np.flatnonzero(dom.leq[j]) for j in dom.join_irreducibles]
    ix, iy, ij = dom.minimal_binding_pairs
    zs, first, runs = np.unique(ij, return_index=True, return_counts=True)
    ends = np.repeat(first + runs, runs)
    hops = 2 ** np.arange((int(runs.max(initial=1)) - 1).bit_length())
    while True:
        tops = [_fold(cod.meet, H[:, up]) for up in ups]
        H = np.full(H.shape, cod.bottom, dtype=np.int32)
        for up, t in zip(ups, tops):
            H[:, up] = cod.join[H[:, up], t[:, None]]
        K = cod.join[H[:, ix], H[:, iy]]
        for hop in hops:           # K[:, first] becomes the meet of each run
            at = np.flatnonzero(np.arange(len(ij)) + hop < ends)
            K[:, at] = cod.meet[K[:, at], K[:, at + hop]]
        K = cod.meet[H[:, zs], K[:, first]]
        if np.array_equal(K, H[:, zs]):
            return H
        H[:, zs] = K


def _batch_right_adjoint(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
    """Rowwise y -> join of {x : F[k, x] <= y}; callers ensure rows are jc."""
    R = np.full((F.shape[0], cod.n), dom.bottom, dtype=np.int32)
    for x in range(dom.n):
        R = np.where(cod.leq[F[:, x]], dom.join[R, x], R)
    return R


def _batch_left_adjoint(dom: Lattice, cod: Lattice, G: np.ndarray) -> np.ndarray:
    """Rowwise y -> meet of {x : y <= G[k, x]}; callers ensure rows are mc."""
    return _batch_right_adjoint(dom.op, cod.op, G)


def _batch_raney_join(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
    """Rowwise x -> join of F[k, t] over t with x not<= t."""
    out = np.full(F.shape, cod.bottom, dtype=np.int32)
    for t in range(dom.n):
        mask = ~dom.leq[:, t]
        out = np.where(mask[None, :], cod.join[out, F[:, t][:, None]], out)
    return out


def _batch_raney_meet(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
    """Rowwise x -> meet of F[k, t] over t with t not<= x."""
    return _batch_raney_join(dom.op, cod.op, F)


# ------------------------------------------------------------- operations

def right_adjoint(f: LatMap) -> LatMap:
    """The map g with f(x) <= y iff x <= g(y); needs f join-continuous."""
    if not is_join_continuous(f):
        raise NotContinuous("right adjoint needs a join-continuous map")
    return LatMap(f.cod, f.dom,
                  _batch_right_adjoint(f.dom, f.cod, f.values[None, :])[0])


def left_adjoint(g: LatMap) -> LatMap:
    """The map f with f(x) <= y iff x <= g(y); needs g meet-continuous."""
    if not is_meet_continuous(g):
        raise NotContinuous("left adjoint needs a meet-continuous map")
    return _op(right_adjoint(_op(g)))


def interior(f: LatMap) -> LatMap:
    """Greatest join-continuous map pointwise below f (f arbitrary)."""
    return LatMap(f.dom, f.cod,
                  _batch_interior(f.dom, f.cod, f.values[None, :])[0])


def raney_join(f: LatMap) -> LatMap:
    """x -> join of f(t) over t with x not<= t; always join-continuous."""
    return LatMap(f.dom, f.cod,
                  _batch_raney_join(f.dom, f.cod, f.values[None, :])[0])


def raney_meet(f: LatMap) -> LatMap:
    """x -> meet of f(t) over t with t not<= x; always meet-continuous."""
    return _op(raney_join(_op(f)))


def special(L: Lattice, kind: str, x: int | None = None) -> LatMap:
    """Named endomaps.

    c(x): bottom to bottom, everything else to x.
    a(x): top on elements not below x, bottom elsewhere.
    alpha(x): top on elements above x, bottom elsewhere.
    o: the join transform of the identity, t -> join of elements not
       above t.
    omega: the meet transform of the identity, t -> meet of elements not
       below t.
    nu(x): bottom on elements below x, identity elsewhere.
    """
    n = L.n
    if kind in ("c", "a", "alpha", "nu"):
        if x is None:
            raise ValueError(f"special {kind!r} needs an element")
        if not 0 <= x < n:
            raise IndexOutOfRange(f"{x} outside range({n})")
    if kind in ("alpha", "omega"):
        return _op(special(L.op, "a" if kind == "alpha" else "o", x))
    if kind == "c":
        vals = np.full(n, x, dtype=np.int32)
        vals[L.bottom] = L.bottom
        return LatMap(L, L, vals)
    if kind == "a":
        return LatMap(L, L, np.where(L.leq[:, x], L.bottom, L.top))
    if kind == "o":
        return raney_join(identity(L))
    if kind == "nu":
        return LatMap(L, L, np.where(L.leq[:, x], L.bottom, np.arange(n)))
    raise ValueError(f"unknown special kind {kind!r}")


def big_meet(fs: Sequence[LatMap]) -> LatMap:
    """Join-continuous infimum candidate of a family of jc maps.

    Value at x is the join, over t with x not<= t, of the family meet at
    omega(t).  Always join-continuous and below-or-at each member's
    interior lower bounds; on completely distributive domains it is the
    infimum of the family inside the jc-map lattice.
    """
    fs = list(fs)
    if not fs:
        raise DomainMismatch("big_meet needs a nonempty family")
    dom, cod = _common_hom(fs)
    for f in fs:
        if not is_join_continuous(f):
            raise NotContinuous("big_meet needs join-continuous maps")
    return LatMap(dom, cod, _batch_big_meet(
        dom, cod, pointwise_meet(fs).values[None, :])[0])


def _batch_big_meet(dom: Lattice, cod: Lattice, M: np.ndarray) -> np.ndarray:
    """Rowwise big_meet of a family given by its pointwise meet M[k]: x ->
    join of M[k, omega(t)] over t with x not<= t."""
    return _batch_raney_join(dom, cod, M[:, special(dom, "omega").values])


# -------------------------------------------------------------- sampling

def all_maps_array(dom: Lattice, cod: Lattice) -> np.ndarray:
    """Every function dom -> cod as a (cod.n ** dom.n, dom.n) array."""
    n, m = dom.n, cod.n
    digits = m ** np.arange(n - 1, -1, -1)
    return (np.arange(m ** n)[:, None] // digits % m).astype(np.int32)


def monotone_maps_array(dom: Lattice, cod: Lattice) -> np.ndarray:
    """Every monotone map dom -> cod, filtered from the full function space."""
    A = all_maps_array(dom, cod)
    return A[(~dom.leq | cod.leq[A[:, :, None], A[:, None, :]]).all(axis=(1, 2))]


def sample_monotone_maps(dom: Lattice, cod: Lattice, count: int,
                         rng: np.random.RandomState) -> np.ndarray:
    """Seeded random monotone maps as a (count, dom.n) array.

    Walks a linear extension of dom, drawing the value at each element in
    every row at once, uniformly from the up-set of the join of the row's
    values below that element (`_draw_above`).
    """
    upsets = _upsets(cod)
    out = np.full((count, dom.n), cod.bottom, dtype=np.int32)
    for x in dom.poset.toposort:
        lo = _fold(cod.join, out[:, dom.leq[:, x]])
        out[:, x] = _draw_above(upsets, lo, rng)
    return out


def _upsets(L: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """The table `_draw_above` draws from: the stable argsort of ~L.leq,
    whose row v lists the elements above v first, ascending, and the
    number of elements above each v."""
    return (np.argsort(~L.leq, axis=1, kind="stable").astype(np.int32),
            L.leq.sum(axis=1))


def _draw_above(upsets: tuple[np.ndarray, np.ndarray], lo: np.ndarray,
                rng: np.random.RandomState) -> np.ndarray:
    """For each entry v of lo, a uniform draw from the elements above v in
    the lattice of upsets = `_upsets(L)`: one draw bounded by each up-set's
    size picks from its row."""
    up, size = upsets
    return up[lo, rng.randint(0, size[lo])]

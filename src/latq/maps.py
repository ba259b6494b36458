"""Maps between finite lattices and the transforms acting on them.

A `LatMap` stores one value index per domain element.  The module keeps
one implementation of each nontrivial algorithm as a batch kernel over a
(B, n) value matrix; single-map operations wrap the kernels with B = 1,
and the bulk detectors in `quantale` reuse them directly.  Each meet-side
operation is its join-side twin run between the order duals (`_op`).

Rows are told apart by exact ranks (`_row_ids`): a run of columns is
coded in int64 as sum of row[x] * base ** x, and `_dedup` ranks the
codes with one sort of (code << k) | position keys, where np.unique
takes up to four times as long.  A row too wide for one code is ranked
run by run, each run's codes appended to the ranks of the columns above
it.  The kernels rank nothing: each computes a row from that row alone,
and most callers' rows are distinct already.  Callers whose rows repeat
rank them through `_rank_rows`, several blocks at once (the suite's map
families, T10's point keys, the axiom sweep's formulas), or as
composites P_a . Q_b through `_composite_ids`, whose codes Horner's rule
builds from one gather of P per column of Q, so that
`quantale._on_composites` runs a kernel on the distinct composites
without forming them all.  Order tests need no product: they AND packed
bit rows (`quantale._pointwise_leq`).

Families are folded through a join or meet table by `lattice._fold`,
over index tables `lattice._padded` lists.  The interior folds over the
covers of its domain, not over up-sets: two sweeps over the Hasse
diagram, a group of elements at a time, read the tables
`_interior_tables` builds once per carrier from the `lower_covers` of
the domain and its dual; the join transform
gathers over the join-irreducibles, through `_raney_tables`.  The special
maps that take an element are the rows of one table per kind
(`special_table`), which T1 reads whole.  The sampler draws all its rows
at once, one domain element at a time, from an up-set table built once
per call (`_upsets`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lattice
from .errors import CapExceeded, DomainMismatch, IndexOutOfRange, NotContinuous
from .lattice import Lattice, _fold, _frozen, _padded


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


def _dedup(codes: np.ndarray):
    """np.unique(codes, return_index=True, return_inverse=True) for a flat
    array of nonnegative int64 codes below 2 ** (63 - N.bit_length()), N
    the number of codes: one sort of the keys (code << k) | position, then
    a rank that counts the changes between neighbours."""
    k = len(codes).bit_length()
    keys = np.sort((codes << k) | np.arange(len(codes)))
    at, codes = keys & ((1 << k) - 1), keys >> k
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inverse = np.empty_like(at)
    inverse[at] = np.cumsum(new) - 1
    return codes[starts], at[starts], inverse


def _row_ids(codes: Callable[[int, int], np.ndarray], width: int, base: int,
             N: int):
    """(first, ids) over N rows of the given width with entries below base:
    ids[r] ranks row r's values as np.unique ranks the codes sum of
    row[x] * base ** x, and first[i] is the first row of rank i.

    codes(lo, hi) gives each row's int64 code over columns lo..hi-1 alone.
    The runs are taken from the last column down, each as wide as the
    ranks so far times its codes stay within `_dedup`'s bound, and each
    run's codes are appended to the ranks of the columns above it; so
    every code is exact at any width.
    """
    ids = np.zeros(N, dtype=np.int64)
    first, count, hi = np.zeros(min(N, 1), dtype=np.int64), 1, width
    limit = 1 << (63 - max(N, 1).bit_length())    # `_dedup`'s code bound
    while hi > 0:
        lo = hi - 1
        while lo > 0 and count * base ** (hi - lo + 1) <= limit:
            lo -= 1
        if count * base ** (hi - lo) > limit:
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
    with entries below m, without forming them: a run's codes are built by
    Horner's rule, from the last column down, one gather of P per column."""
    PT = np.ascontiguousarray(P.T)

    def codes(lo: int, hi: int) -> np.ndarray:
        out = np.zeros((len(Q), len(P)), dtype=np.int64)
        for x in range(hi - 1, lo - 1, -1):
            out = out * base + PT[Q[:, x]]
        return out.T.ravel()

    return _row_ids(codes, Q.shape[1], base, len(P) * len(Q))


def _batch_interior(dom: Lattice, cod: Lattice, H: np.ndarray) -> np.ndarray:
    """Greatest pointwise-below join-continuous maps, rowwise.

    A jc map is fixed by its values on J(dom).  Each pass takes, for each
    j in J(dom), the meet U[j] of the row over the up-set of j, and
    rebuilds the row as x -> join of U[j] over j in J(dom) below x, as
    `quantale.enumerate_homset` builds rows; then it meets each minimal
    binding pair's join value with the join of its members' values
    (`Lattice.minimal_binding_pairs`).  Other pairs hold on a rebuilt row,
    which is monotone: a binding pair whose join a lower cover keeps has
    a join value at or above the smaller pair's, so leaving it out
    changes no meet.  So passes stop once that step changes nothing,
    after one on a distributive domain.  No step drops a jc map below the
    start row, so the limit is the greatest.

    Both halves of the rebuild are sweeps over the covers of dom, a group
    of elements of one height at a time (`_interior_tables`), in place:
    - from the top down, U[y] = H[y] ^ meet of U[c] over the upper covers
      c of y, as the up-set of y is {y} and the up-sets of those covers;
    - then from the bottom up, H[x] = (U[x] if x in J else bottom) v join
      of H[c] over the lower covers c of x, as the join-irreducibles
      below x are x itself if it is one, and those below the covers.
    Each group's covers lie in groups swept before it.  The pads, top for
    a meet and bottom for a join, change nothing: U[top] = H[top] lies
    above every U[y], and H[bottom] is bottom.  Three groups need no
    sweep: the top's, where U is H; the bottom's, whose U nothing reads,
    as the bottom covers nothing and is not in J; and the atoms', whose
    only lower cover is the bottom.
    """
    G, U, D, groups, non_j, (ix, iy, zs, first), hops = _interior_tables(dom)
    H = np.array(H, dtype=np.int32)
    while True:
        for a, b, u, _ in groups[-2:0:-1]:
            H[:, G[a:b]] = _fold(cod.meet, H[:, U[a:b, :u]])
        H[:, non_j] = cod.bottom
        for a, b, _, d in groups[2:]:
            H[:, G[a:b]] = _fold(cod.join, H[:, D[a:b, :d]])
        K = cod.join[H[:, ix], H[:, iy]]
        for at, to in hops:        # K[:, first] becomes the meet of each run
            K[:, at] = cod.meet[K[:, at], K[:, to]]
        K = cod.meet[H[:, zs], K[:, first]]
        if np.array_equal(K, H[:, zs]):
            return H
        H[:, zs] = K


def _interior_tables(dom: Lattice) -> tuple:
    """What `_batch_interior` reads of its domain, built once per carrier
    and kept in `dom.derived`: (G, U, D, groups, non_j, pairs, hops).

    G lists the elements by height, the length of the longest chain from
    the bottom up to them, lowest first, so that an element's upper
    covers are higher than it and its lower covers lower.  Row k of D
    holds G[k] and then its row of `Lattice.lower_covers`, its lower
    covers and the bottom as pad; row k of U the same on the dual: G[k],
    its upper covers and the top as pad.  `groups` holds (a, b, u, d)
    for each height: G[a:b] are its elements, whose rows need only the
    first u columns of U and d of D.  `non_j` holds the elements that
    are not join-irreducible.  The binding-pair step reads `pairs`,
    (ix, iy, zs, first), with ix and iy as in
    `Lattice.minimal_binding_pairs`, zs their distinct joins and first the
    start of each run of one join; and `hops`, the (at, to) steps that
    meet entries of a run with those further on, halving the runs into
    their first entries.
    """
    if "interior" in dom.derived:
        return dom.derived["interior"]
    n, covers = dom.n, dom.poset.covers
    rank = dom.leq.sum(axis=0).tolist()
    height = [0] * n
    # each cover after those into its lower end: down-sets grow along covers
    for i, j in sorted(covers.tolist(), key=lambda e: rank[e[0]]):
        if height[j] <= height[i]:
            height[j] = height[i] + 1
    G = sorted(range(n), key=height.__getitem__)
    up, down = (np.bincount(c, minlength=n) for c in covers.T)
    groups, a = [], 0
    for _, xs in itertools.groupby(G, key=height.__getitem__):
        xs = list(xs)
        groups.append((a, a + len(xs), 1 + int(up[xs].max()),
                       1 + int(down[xs].max())))
        a += len(xs)
    ix, iy, ij = dom.minimal_binding_pairs
    joins = ij.tolist()
    first = [k for k, z in enumerate(joins) if not k or z != joins[k - 1]]
    # left[k] counts the entries from k to the end of its run
    left = [e - k for s, e in zip(first, first[1:] + [len(joins)])
            for k in range(s, e)]
    hops = []
    for b in range((max(left, default=1) - 1).bit_length()):
        at = np.array([k for k, r in enumerate(left) if r > 1 << b], np.intp)
        hops.append((at, at + (1 << b)))
    first = np.array(first, np.intp)
    dom.derived["interior"] = (
        np.array(G), np.column_stack([G, dom.op.lower_covers[G]]),
        np.column_stack([G, dom.lower_covers[G]]), groups,
        np.flatnonzero(down != 1), (ix, iy, ij[first], first), hops)
    return dom.derived["interior"]


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
    """Rowwise x -> join of F[k, t] over t with x not<= t.

    Two gathers over the join-irreducibles J of dom (`_raney_tables`):
    R[k, j] = join of F[k, t] over t with j not<= t, then x -> join of
    R[k, j] over j in J below x, the empty join at the bottom.  Exact on
    every row, monotone or not: x is the join of the j in J below it, so
    x <= t just when each such j is, and {t : x not<= t} is the union of
    the sets {t : j not<= t}.
    """
    T, P = _raney_tables(dom)
    R = np.full((len(F), len(T) + 1), cod.bottom, dtype=np.int32)
    R[:, :-1] = _gathered_joins(cod.join, F, T)
    return _gathered_joins(cod.join, R, P)


def _gathered_joins(join: np.ndarray, F: np.ndarray, idx: np.ndarray
                    ) -> np.ndarray:
    """_fold(join, F[:, idx]), by blocks of rows of F, and of idx where one
    row of F needs it, whose gathers fit `lattice._CHUNK_BYTES`."""
    out = np.empty((len(F), len(idx)), dtype=np.int32)
    cell, budget = 4 * idx.shape[1], lattice._CHUNK_BYTES
    rows = max(1, budget // (cell * max(1, len(idx))))
    width = max(1, budget // (cell * rows))
    for r in range(0, len(F), rows):
        for k in range(0, len(idx), width):
            out[r:r + rows, k:k + width] = _fold(
                join, F[r:r + rows, idx[k:k + width]])
    return out


def _raney_tables(dom: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """The int16 tables (T, P) `_batch_raney_join` reads, built once per
    carrier into `dom.derived`.  Row k of T lists the t with j_k not<= t,
    j_k the k-th of J, padded with the bottom, which each row holds; row x
    of P lists the k with j_k <= x, padded with len(J), R's column of
    bottoms, which P has even when J is empty.  Each takes at most
    2 |J| n bytes: 59 KB for both on c20xc20, 4 MB on the 1,024-element
    chain."""
    if "raney" not in dom.derived:
        J = list(dom.join_irreducibles)
        dom.derived["raney"] = (_padded(~dom.leq[J], dom.bottom),
                                _padded(dom.leq[J].T, len(J)))
    return dom.derived["raney"]


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

    The kinds that take an element are rows of `special_table`; o and
    omega refuse one.
    """
    if kind in ("o", "omega"):      # built once per carrier, and read-only
        if x is not None:
            raise ValueError(f"special {kind!r} takes no element")
        if kind not in L.derived:
            L.derived[kind] = (raney_join(identity(L)) if kind == "o"
                               else _op(special(L.op, "o")))
        return L.derived[kind]
    if kind not in ("c", "a", "alpha", "nu"):
        raise ValueError(f"unknown special kind {kind!r}")
    if x is None:
        raise ValueError(f"special {kind!r} needs an element")
    if not 0 <= x < L.n:
        raise IndexOutOfRange(f"{x} outside range({L.n})")
    return LatMap(L, L, special_table(L, kind, x))


def special_table(L: Lattice, kind: str,
                  x: int | slice | np.ndarray = slice(None)) -> np.ndarray:
    """The (n, n) table whose row x is special(L, kind, x), for a kind
    that takes an element; given x, that row alone, and given an index
    array, those rows."""
    y = np.arange(L.n, dtype=np.int32)     # the argument, across a row
    if kind == "c":
        return np.where(y == L.bottom, y, y[x, None])
    if kind == "a":
        return np.where(L.leq[:, x].T, L.bottom, L.top).astype(np.int32)
    if kind == "alpha":
        return special_table(L.op, "a", x)
    if kind == "nu":
        return np.where(L.leq[:, x].T, L.bottom, y)
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
    """Every function dom -> cod as a (cod.n ** dom.n, dom.n) array,
    refused up front past `lattice.DEFAULT_CAP` rows."""
    n, m = dom.n, cod.n
    if m ** n > lattice.DEFAULT_CAP:
        raise CapExceeded(f"{m ** n} maps exceed the cap {lattice.DEFAULT_CAP}")
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
    """The table `_draw_above` draws from: row v lists the elements above
    v, ascending, padded with the top (`_padded`), and the number of
    elements above each v, the part of the row a draw reads."""
    return _padded(L.leq, L.top), L.leq.sum(axis=1)


def _draw_above(upsets: tuple[np.ndarray, np.ndarray], lo: np.ndarray,
                rng: np.random.RandomState) -> np.ndarray:
    """For each entry v of lo, a uniform draw from the elements above v in
    the lattice of upsets = `_upsets(L)`: one draw bounded by each up-set's
    size picks from its row."""
    up, size = upsets
    return up[lo, rng.randint(0, size[lo])]

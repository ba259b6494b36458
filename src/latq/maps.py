"""Maps between finite lattices and the transforms acting on them.

A `LatMap` stores one value index per domain element.  The module keeps
one implementation of each nontrivial algorithm as a batch kernel over a
(B, n) value matrix; single-map operations wrap the kernels with B = 1,
and the bulk detectors in `quantale` reuse them directly.  Each meet-side
operation is its join-side twin run between the order duals (`_op`).

Every kernel computes each row from that row alone, and the matrices the
detectors and sweeps pass in repeat rows heavily: their rows are maps in
a homset of at most cod.n ** n members.  So the kernels run once per
distinct row and copy the results back out (`_once_per_distinct_row`).
They run on every row, as given, when a matrix has fewer than two rows
or when a row does not fit a 62-bit code (n * log2(cod.n) >= 62).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainMismatch, IndexOutOfRange, NotContinuous
from .lattice import Lattice, _frozen


@dataclass(frozen=True)
class MapClass:
    monotone: bool
    join_continuous: bool
    meet_continuous: bool


class LatMap:
    """Function between lattice carriers, as an int index array."""

    __slots__ = ("dom", "cod", "values", "_key")

    def __init__(self, dom: Lattice, cod: Lattice, values):
        values = np.array(values, dtype=np.int32)
        if values.shape != (dom.n,):
            raise DomainMismatch(
                f"expected {dom.n} values, got shape {values.shape}"
            )
        if values.size and (values.min() < 0 or values.max() >= cod.n):
            raise IndexOutOfRange("value outside the codomain carrier")
        self.dom = dom
        self.cod = cod
        self.values = _frozen(values)
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


def _distinct_rows(F: np.ndarray, base: int):
    """The distinct rows of a (B, n) matrix of entries below base, and for
    each row the position of its copy among them; None when a row does not
    fit a 62-bit code (n * log2(base) >= 62).

    Row k is coded as sum of F[k, x] * base ** x, and the distinct rows
    are decoded from the sorted distinct codes.
    """
    width = F.shape[1]
    if width * math.log2(base) >= 62:
        return None
    powers = base ** np.arange(width, dtype=np.int64)
    distinct, inverse = np.unique(F @ powers, return_inverse=True)
    return (distinct[:, None] // powers % base).astype(F.dtype), inverse


def _once_per_distinct_row(kernel: Callable[..., np.ndarray]):
    """Run a rowwise kernel over (B, n) values in cod on distinct rows only,
    and index its result by the inverse to put every row back."""

    @functools.wraps(kernel)
    def run(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
        F = np.asarray(F)
        once = _distinct_rows(F, cod.n) if len(F) >= 2 else None
        if once is None:
            return kernel(dom, cod, F)
        rows, inverse = once
        return kernel(dom, cod, rows)[inverse]

    return run


@_once_per_distinct_row
def _batch_interior(dom: Lattice, cod: Lattice, H: np.ndarray) -> np.ndarray:
    """Greatest pointwise-below join-continuous maps, rowwise.

    A jc map is fixed by its values on J(dom).  Each pass takes, for each
    j in J(dom), the meet of the row over the up-set of j, and rebuilds the
    row by joining it into that up-set, as `quantale.enumerate_homset`
    builds rows; then it meets each binding pair's join value with the join
    of its members' values (`Lattice.interior_constraints`).  Other pairs
    hold on a rebuilt row, so passes stop once that step changes nothing,
    after one on a distributive domain.  No step drops a jc map below the
    start row, so the limit is the greatest.
    """
    ups = [np.flatnonzero(dom.leq[j]) for j in dom.join_irreducibles]
    ix, iy, ij = dom.interior_constraints
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


def _fold(table: np.ndarray, A: np.ndarray) -> np.ndarray:
    """A lattice operation table folded over the last, nonempty axis of A by
    halves; idempotence makes an overlapping middle entry harmless."""
    while A.shape[-1] > 1:
        w = A.shape[-1]
        A = table[A[..., :(w + 1) // 2], A[..., w // 2:]]
    return A[..., 0]


@_once_per_distinct_row
def _batch_right_adjoint(dom: Lattice, cod: Lattice, F: np.ndarray) -> np.ndarray:
    """Rowwise y -> join of {x : F[k, x] <= y}; callers ensure rows are jc."""
    R = np.full((F.shape[0], cod.n), dom.bottom, dtype=np.int32)
    for x in range(dom.n):
        R = np.where(cod.leq[F[:, x]], dom.join[R, x], R)
    return R


def _batch_left_adjoint(dom: Lattice, cod: Lattice, G: np.ndarray) -> np.ndarray:
    """Rowwise y -> meet of {x : y <= G[k, x]}; callers ensure rows are mc."""
    return _batch_right_adjoint(dom.op, cod.op, G)


@_once_per_distinct_row
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

    Walks a linear extension assigning each element a uniform choice from
    the up-set of the join of its lower covers' values.
    """
    order = dom.poset.toposort
    lower: dict[int, list[int]] = {x: [] for x in range(dom.n)}
    for i, j in dom.poset.covers:
        lower[j].append(i)
    ups = [np.flatnonzero(cod.leq[v]) for v in range(cod.n)]
    out = np.empty((count, dom.n), dtype=np.int32)
    for r in range(count):
        row = out[r]
        for x in order:
            lo = cod.bottom
            for c in lower[x]:
                lo = int(cod.join[lo, row[c]])
            cands = ups[lo]
            row[x] = cands[rng.randint(len(cands))]
    return out

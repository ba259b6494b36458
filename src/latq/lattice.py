"""Finite complete lattices: validated construction, generators, duality.

Elements are integers 0..n-1.  The order lives in a boolean matrix
``leq`` with ``leq[i, j]`` meaning i is below j; join and meet are
integer tables.  `build_poset` keeps the labels as given, so nothing may
rely on ``leq[i, j] implies i <= j``; `dual` transposes the matrix and
breaks it anyway.  The meet side of `maps` and `cd` is the join side run
on the dual.  A family of elements is folded through a table by one
function, `_fold`, which `Lattice.sup` and `inf` and the batch kernels
of `maps` share; `_padded` lists the rows of every index table.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import CycleDetected, IndexOutOfRange, NotALattice, TooLarge

# Largest carrier admitted (`_admit`).  Budget: 5 s to build a chain with
# one BLAS thread (512, 1,024 elements: 0.1, 0.45 s), and 30 s for
# `latq verify --corpus` on the 1,024-element chain (0.7 s, T2 about 0.1 s
# of it).
MAX_ELEMENTS = 1024
DEFAULT_CAP = 1 << 20     # rows an enumeration of maps may list
_CHUNK_BYTES = 1 << 23    # bytes one block of any chunked sweep may take


def _admit(n: int) -> None:
    """Refuse a carrier of n elements past `MAX_ELEMENTS`: every `Poset`
    calls it, and `build_poset`, `_inclusion_lattice` and
    `quantale.homset_lattice` before they build an order table."""
    if n > MAX_ELEMENTS:
        raise TooLarge(f"{n} elements exceeds the {MAX_ELEMENTS} cap")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fold(table: np.ndarray, A: np.ndarray) -> np.ndarray:
    """A lattice operation table folded over the last, nonempty axis of A by
    halves; idempotence makes an overlapping middle entry harmless."""
    while A.shape[-1] > 1:
        w = A.shape[-1]
        A = table[A[..., :(w + 1) // 2], A[..., w // 2:]]
    return A[..., 0]


def _padded(M: np.ndarray, pad: int) -> np.ndarray:
    """Row r: the c with M[r, c], ascending, then pad, to a common width
    of at least one column.  One scatter of np.nonzero(M), which lists
    each row's columns ascending, row after row."""
    rows, cols = np.nonzero(M)
    count = np.bincount(rows, minlength=len(M))
    table = np.full((len(M), max(1, count.max(initial=0))), pad, np.int16)
    starts = np.cumsum(count) - count
    table[rows, np.arange(len(rows)) - starts[rows]] = cols
    return table


def _stable_topo(n: int, covers: np.ndarray) -> list[int]:
    """Kahn over the Hasse edges (lower, upper) of an order on range(n),
    always popping the smallest index.

    The pops are those of the same Kahn over the strict order.  What is
    popped is always a down-set, so an element's lower covers are all
    popped exactly when everything below it is: both walks have the same
    elements ready at every step.
    """
    indeg = [0] * n
    upper: list[list[int]] = [[] for _ in range(n)]
    for i, j in covers.tolist():
        upper[i].append(j)
        indeg[j] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        i = heapq.heappop(heap)
        out.append(i)
        for j in upper[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    return out


class Poset:
    """Finite poset as a reflexive, antisymmetric, transitive bool matrix,
    and its Hasse edges `covers` (lower, upper): a read-only (E, 2) intp
    array in lexicographic order.  Entry [i, j] of leq @ leq counts the k
    with i <= k <= j, so it is 2 exactly where j covers i."""

    def __init__(self, leq: np.ndarray):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValueError("leq must be square")
        n = leq.shape[0]
        _admit(n)
        if not leq.diagonal().all():
            raise ValueError("leq must be reflexive")
        if (leq & leq.T & ~np.eye(n, dtype=bool)).any():
            raise ValueError("leq must be antisymmetric")
        # interval counts are at most n; float32 holds them exactly below 2**24
        counts = leq.astype(np.float32) @ leq.astype(np.float32)
        if ((counts > 0) & ~leq).any():
            raise ValueError("leq must be transitive")
        self.n = n
        self.leq = _frozen(leq)
        self.covers = _frozen(np.argwhere(leq & (counts == 2)))

    @cached_property
    def toposort(self) -> tuple[int, ...]:
        """A linear extension of the order (original labels): the identity
        when the labels are sorted already, else `_stable_topo`."""
        if not np.tril(self.leq, -1).any():
            return tuple(range(self.n))
        return tuple(_stable_topo(self.n, self.covers))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Poset)
            and self.n == other.n
            and bool(np.array_equal(self.leq, other.leq))
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Made once: the order is frozen, and a lookup would copy it."""
        return hash((self.n, self.leq.tobytes()))

    def __repr__(self) -> str:
        return f"Poset(n={self.n})"


def build_poset(n: int, covers: Iterable[tuple[int, int]]) -> Poset:
    """Poset from cover pairs (lower, upper), validated, labels as given.

    Takes the reflexive-transitive closure of the cover relation and
    rejects cycles.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _admit(n)
    leq = np.eye(n, dtype=bool)
    for i, j in covers:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"cover ({i}, {j}) outside range({n})")
        if i == j:
            raise CycleDetected(f"cover ({i}, {j}) is a self-loop")
        leq[i, j] = True
    for k in range(n):             # Warshall: the rows below k take row k
        leq[leq[:, k]] |= leq[k]
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise CycleDetected(f"elements {i} and {j} lie on a common cycle")
    return Poset(leq)


class Lattice:
    """Complete finite lattice: a poset with join/meet tables and bounds."""

    def __init__(
        self,
        poset: Poset,
        join: np.ndarray,
        meet: np.ndarray,
        bottom: int,
        top: int,
        name: str | None = None,
    ):
        self.poset = poset
        # no copy of int32 tables, so a dual or a renamed lattice shares them
        self.join = _frozen(np.asarray(join, dtype=np.int32))
        self.meet = _frozen(np.asarray(meet, dtype=np.int32))
        self.bottom = int(bottom)
        self.top = int(top)
        self.name = name

    @property
    def n(self) -> int:
        return self.poset.n

    @cached_property
    def op(self) -> "Lattice":
        """Order dual, built once; its own dual is this object."""
        # transposing keeps the order axioms, so the poset is not revalidated,
        # and turns each Hasse edge around, kept in lexicographic order
        p = Poset.__new__(Poset)
        p.n, p.leq, c = self.n, self.leq.T, self.poset.covers
        p.covers = _frozen(c[np.argsort(c[:, 1], kind="stable"), ::-1])
        name = f"{self.name}_dual" if self.name else None
        D = Lattice(p, self.meet, self.join, self.top, self.bottom, name)
        D.__dict__["op"] = self
        return D

    @property
    def leq(self) -> np.ndarray:
        return self.poset.leq

    def sup(self, xs: Iterable[int]) -> int:
        """Join of any finite family; the empty join is the bottom."""
        return int(_fold(self.join, np.array([self.bottom, *xs], np.intp)))

    def inf(self, xs: Iterable[int]) -> int:
        """Meet of any finite family; the empty meet is the top."""
        return self.op.sup(xs)

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover, in toposort order."""
        lower = np.bincount(self.poset.covers[:, 1], minlength=self.n)
        return tuple(x for x in self.poset.toposort if lower[x] == 1)

    @cached_property
    def is_distributive(self) -> bool:
        """No pair binds: every join-irreducible is join-prime.  On a
        finite lattice that is complete distributivity (Raney 1952), and
        this is its one decider: the gates, the axiom route, T5 and T13
        read it, and T8/T8n, T9/T9n and T12/T12n check Raney's criteria
        against it."""
        return not len(self.minimal_binding_pairs[0])

    @cached_property
    def derived(self) -> dict:
        """Maps and tables built from this carrier alone, kept by `maps`
        (`special`, `_interior_tables`, `_raney_tables`) and by `quantale`
        (`_level_plan`, the enumeration's binding pairs by level, with this
        as a non-distributive domain)."""
        return {}

    @cached_property
    def lower_covers(self) -> np.ndarray:
        """Row x: the lower covers of x, ascending, then the bottom as pad
        up to a common width (`_padded`)."""
        lower, upper = self.poset.covers.T
        M = np.zeros((self.n, self.n), dtype=bool)
        M[upper, lower] = True
        return _padded(M, self.bottom)

    @cached_property
    def minimal_binding_pairs(self) -> tuple[np.ndarray, ...]:
        """The binding pairs that no pair one lower cover down replaces,
        as (ix, iy, ij = ix v iy), sorted by ij.

        An incomparable pair x < y (as indices) binds when c[x v y] +
        c[x ^ y] > c[x] + c[y], c counting the join-irreducibles below: some
        join-irreducible below x v y is below neither.  A map x -> join of
        its values on J below x preserves the join of every other pair.  A
        binding pair is kept unless a lower cover c of ix has c v iy = ij,
        or one of iy has ix v c = ij; that pair binds too.  So every binding
        pair lies above a kept one with its join, and the table is empty
        exactly on distributive lattices.

        On a monotone row, such as one rebuilt from its values on J, the
        pair (c, y) has f(c) v f(y) <= f(x) v f(y) <= f(x v y).  So a join
        test, or a meet of join values, over the kept pairs decides the
        same as over all binding pairs.  Lower covers are read one padded
        column at a time, bottom the pad: bottom v y = y != ij.
        """
        c = self.leq[list(self.join_irreducibles)].sum(axis=0)
        inc = np.argwhere(~(self.leq | self.leq.T))
        ix, iy = inc[inc[:, 0] < inc[:, 1]].T
        ij = self.join[ix, iy].astype(np.int64)
        binds = c[ij] + c[self.meet[ix, iy]] > c[ix] + c[iy]
        ix, iy, ij = ix[binds], iy[binds], ij[binds]
        keep = np.ones(len(ij), dtype=bool)
        for d in self.lower_covers.T:
            keep &= (self.join[d[ix], iy] != ij) & (self.join[ix, d[iy]] != ij)
        keep = np.flatnonzero(keep)
        keep = keep[np.argsort(ij[keep], kind="stable")]
        return ix[keep], iy[keep], ij[keep]

    def rename(self, name: str) -> "Lattice":
        """Same lattice object shape under a new name (shared arrays)."""
        return Lattice(self.poset, self.join, self.meet, self.bottom, self.top, name)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Lattice) and self.poset == other.poset)

    def __hash__(self) -> int:
        return hash(self.poset)

    def __repr__(self) -> str:
        tag = self.name or "?"
        return f"Lattice({tag}, n={self.n})"


def build_lattice(p: Poset, name: str | None = None) -> Lattice:
    """Lattice over a poset, or NotALattice naming an offending pair.

    Each element is coded by the bitmask of join-irreducibles (one lower
    cover) below it.  In a lattice code(x ^ y) = code(x) & code(y) and codes
    are distinct, the empty one the bottom's, so each meet is one lookup in
    the sorted codes.  Every candidate k is then verified exactly, which
    catches a poset that is not a lattice: k <= x, k <= y, and x and y have
    |down k| common lower bounds.  Joins come the same way from the dual
    order.  Pairs that fail are re-tested against every principal bound set;
    the first one in (i, j >= i) row-major order, join table first, that has
    no join or meet is named.
    """
    if p.n == 0:
        raise NotALattice("empty carrier has no bottom")
    f = p.leq.astype(np.float32)
    join, top = _meet_table(p.leq.T, f.T, p.covers[:, 0], "join")
    meet, bottom = _meet_table(p.leq, f, p.covers[:, 1], "meet")
    return Lattice(p, join, meet, bottom, top, name)


def _meet_table(leq: np.ndarray, f: np.ndarray, cover_tops: np.ndarray,
                what: str) -> tuple[np.ndarray, int]:
    n = leq.shape[0]
    J = np.flatnonzero(np.bincount(cover_tops, minlength=n) == 1)
    words = max(1, -(-len(J) // 64))
    bits = np.zeros((n, 64 * words), dtype=bool)
    bits[:, :len(J)] = leq[J].T
    codes = np.packbits(bits, axis=1).view(np.uint64)
    key = np.uint64 if words == 1 else np.dtype((np.void, 8 * words))
    order = np.argsort(codes.view(key)[:, 0]).astype(np.int32)
    sorted_codes = codes.view(key)[order, 0]
    # common lower bounds; counts are at most n, exact in float32 below 2**24
    common = f.T @ f
    down = f.sum(axis=0)
    out = np.empty((n, n), dtype=np.int32)
    ok = np.empty((n, n), dtype=bool)
    cols = np.arange(n)
    # rows per chunk, so the pair codes fit _CHUNK_BYTES
    step = max(1, _CHUNK_BYTES // (8 * n * words))
    for r in range(0, n, step):
        rows = cols[r:r + step, None]
        pos = np.searchsorted(
            sorted_codes, (codes[rows] & codes).view(key)[..., 0])
        k = out[r:r + step] = order[np.minimum(pos, n - 1, out=pos)]
        ok[r:r + step] = (leq[k, rows] & leq[k, cols]
                          & (common[r:r + step] == down[k]))
    if not ok.all():
        down_sets = {leq[:, k].tobytes(): k for k in range(n)}
        for i, j in np.argwhere(np.triu(~ok)).tolist():
            k = down_sets.get((leq[:, i] & leq[:, j]).tobytes())
            if k is None:
                raise NotALattice(f"elements {i} and {j} have no {what}")
            out[i, j] = out[j, i] = k
    return out, int(order[0])


def dual(L: Lattice) -> Lattice:
    """Order-dual lattice: transposed order, join and meet swapped."""
    return L.op


def distributivity_witness(L: Lattice) -> tuple[int, int, int] | None:
    """First (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z), else None.

    A y comparable to every z satisfies the law for every x, so only the
    rows y with an incomparable z are scanned.
    """
    ys = np.flatnonzero((~(L.leq | L.leq.T)).any(axis=1))
    for x in range(L.n):
        m = L.meet[x]
        bad = m[L.join[ys]] != L.join[m[ys][:, None], m[None, :]]
        if bad.any():
            r, z = map(int, np.argwhere(bad)[0])
            return (x, int(ys[r]), z)
    return None


def is_chain(L: Lattice) -> bool:
    """True iff any two elements are comparable."""
    return bool((L.leq | L.leq.T).all())


def downset_lattice(p: Poset, name: str | None = None) -> Lattice:
    """Lattice of down-closed subsets of p, ordered by inclusion.

    Downsets are encoded as bitmasks and listed by (popcount, value), which
    is a linear extension of inclusion.
    """
    if p.n > 12:
        raise TooLarge(f"poset has {p.n} > 12 elements")
    below = [sum(1 << j for j in range(p.n) if p.leq[j, i]) for i in range(p.n)]
    masks = [m for m in range(1 << p.n)
             if all(below[i] & ~m == 0 for i in range(p.n) if m >> i & 1)]
    return _inclusion_lattice(masks, name)


def _inclusion_lattice(masks: list[int], name: str | None) -> Lattice:
    masks = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    _admit(len(masks))
    arr = np.asarray(masks, dtype=np.int64)
    leq = (arr[:, None] & ~arr[None, :]) == 0
    return build_lattice(Poset(leq), name)


@dataclass(frozen=True)
class GeneratorSpec:
    """Config for `generate`: a kind and the fields `GENERATORS` lists
    for it.  Unused fields stay None."""

    kind: str
    n: int | None = None
    k: int | None = None
    a: int | None = None
    b: int | None = None
    seed: int | None = None


def _chain(n: int) -> Lattice:
    if n < 1:
        raise ValueError("chain needs at least one element")
    if n > 20:
        raise TooLarge(f"chain cap is 20 elements, got {n}")
    return _inclusion_lattice([(1 << i) - 1 for i in range(n)], f"c{n}")


def _boolean(k: int) -> Lattice:
    if k < 0:
        raise ValueError("boolean needs a nonnegative exponent")
    if k > 4:
        raise TooLarge(f"boolean cap is exponent 4, got {k}")
    return _inclusion_lattice(list(range(1 << k)), f"b{k}")


def _product_of_chains(a: int, b: int) -> Lattice:
    # the down-sets of two disjoint chains, of b - 1 points in the low bits
    # and a - 1 above them; (i, j) takes i of the one and j of the other,
    # so (popcount, value) lists the pairs by (i + j, i)
    if a < 1 or b < 1:
        raise ValueError("product needs chains with at least one element")
    if a > 20 or b > 20:
        raise TooLarge(f"product cap is 20 per side, got ({a}, {b})")
    return _inclusion_lattice(
        [(1 << j) - 1 | ((1 << i) - 1) << (b - 1)
         for i in range(a) for j in range(b)], f"c{a}xc{b}")


def _m3() -> Lattice:
    p = build_poset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    return build_lattice(p, "m3")


def _n5() -> Lattice:
    # 0 < 1 < 3 < 4 on one side, 0 < 2 < 4 on the other
    p = build_poset(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
    return build_lattice(p, "n5")


def _closure_system(masks: Iterable[int], n: int) -> list[int]:
    full = (1 << n) - 1
    fam = {full}
    queue = list(masks)
    while queue:
        x = queue.pop()
        if x in fam:
            continue
        fresh = [x & y for y in fam if (x & y) not in fam and x & y != x]
        fam.add(x)
        queue.extend(fresh)
    return sorted(fam)


def _random_closure_lattice(seed: int, n: int) -> Lattice:
    if n < 1:
        raise ValueError("random lattice needs a nonempty ground set")
    if n > 12:
        raise TooLarge(f"random ground-set cap is 12, got {n}")
    rng = np.random.RandomState(seed)
    gens = [int(v) for v in rng.randint(0, 1 << n, size=n)]
    masks = _closure_system(gens, n)
    return _inclusion_lattice(masks, f"r{seed}_{n}")


# generator kind -> (builder, its GeneratorSpec fields in argument order)
GENERATORS = {
    "chain": (_chain, ("n",)),
    "boolean": (_boolean, ("k",)),
    "m3": (_m3, ()),
    "n5": (_n5, ()),
    "product": (_product_of_chains, ("a", "b")),
    "random": (_random_closure_lattice, ("seed", "n")),
}


def generate(spec: GeneratorSpec) -> Lattice:
    """Build the lattice a GeneratorSpec describes."""
    if spec.kind not in GENERATORS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    build, fields = GENERATORS[spec.kind]
    args = [getattr(spec, field) for field in fields]
    if None in args:
        raise ValueError(f"{spec.kind} needs {' and '.join(fields)}")
    return build(*args)


def all_posets(max_n: int) -> Iterator[Poset]:
    """All posets with 1..max_n elements, one per isomorphism class.

    A poset on n points is one on n - 1 points plus a maximal point above
    a down-set.  Classes are their least `leq` bytes over relabellings, in
    order of their least code over relabellings, a digit per pair i <= j:
    0 incomparable, 1 i < j, 2 j < i, 3 i = j.  Refused past 7 points:
    all_posets(7) takes about 30 s, and 8 would take about 64 times that.
    """
    if max_n > 7:
        raise TooLarge(f"posets on {max_n} points exceed the 7-point cap")
    level = [np.eye(0, dtype=bool)]
    for n in range(1, max_n + 1):
        perms = np.array(list(itertools.permutations(range(n))))
        iu, ju = np.triu_indices(n)
        found = {}
        for prev in level:
            for bits in itertools.product((False, True), repeat=n - 1):
                down = np.array(bits, dtype=bool)
                if (prev[:, down].any(axis=1) & ~down).any():
                    continue
                leq = np.eye(n, dtype=bool)
                leq[:-1, :-1], leq[:-1, -1] = prev, down
                R = leq[perms[:, :, None], perms[:, None]].reshape(-1, n * n)
                code = R[:, iu * n + ju] + 2 * R[:, ju * n + iu]
                found[R[np.lexsort(R.T[::-1])[0]].tobytes()] = \
                    code[np.lexsort(code.T[::-1])[0]].tolist()
        level = [np.frombuffer(c, dtype=bool).reshape(n, n)
                 for c in sorted(found, key=found.get)]
        yield from map(Poset, level)

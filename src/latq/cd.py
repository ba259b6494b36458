"""Complete-distributivity criteria, the independent oracle, profiles.

Three routes to the same verdict on a finite lattice: the two transform
criteria (join of meets-of-complements, meet of joins-of-complements)
and a plain triple-distributivity scan.  Finiteness makes them agree;
the suite and the acceptance tests quantify that agreement.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterable

import numpy as np

from . import maps
from .lattice import Lattice, _fold, distributivity_witness, is_chain


@dataclass
class CheckResult:
    """Verdict of one named check, with a replayable witness on failure.

    `info` holds work counters; `substantive` is False for a conditional
    check whose premise failed.  A suite cell that did not run carries the
    skip `reason`, and `expected` is False when a cap tripped mid-run.
    """

    name: str
    holds: bool
    witness: Any = None
    elapsed: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)
    substantive: bool | None = None
    reason: str | None = None
    expected: bool = True

    @property
    def status(self) -> str:
        if self.reason is not None:
            return "skip"
        return "pass" if self.holds else "fail"

    def as_doc(self, timing: bool = False) -> dict:
        doc: dict[str, Any] = {
            "name": self.name,
            "holds": self.holds,
            "witness": self.witness,
        }
        if timing:
            doc["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return doc

    def cell_doc(self, timing: bool = False) -> dict:
        """The verdict as one cell of a suite report."""
        doc: dict[str, Any] = {"status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.reason is not None:
            doc["reason"] = self.reason
            doc["expected"] = self.expected
        if self.substantive is not None:
            doc["substantive"] = self.substantive
        if timing:
            doc["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return doc


def timed(check: Callable[..., CheckResult], *args) -> CheckResult:
    """Run a check; a fresh copy of its verdict carries the wall time."""
    t0 = time.perf_counter()
    res = check(*args)
    return replace(res, elapsed=time.perf_counter() - t0)


def row_witness(ok: np.ndarray, rows: dict[str, np.ndarray]) -> dict | None:
    """At the first False in ok, in row-major order, that entry of each
    named array; else None.  An array's leading axes broadcast against the
    shape of ok, so F[:, None] and F[None] give a pair's first and second
    member without tiling F."""
    bad = np.flatnonzero(~ok)
    if not len(bad):
        return None
    at = np.unravel_index(int(bad[0]), ok.shape)
    return {key: a[tuple(i if d > 1 else 0 for i, d in zip(at, a.shape))]
            .tolist() for key, a in rows.items()}


def verdict(name: str, ok: np.ndarray, rows: dict[str, np.ndarray]
            ) -> CheckResult:
    """The verdict of check `name`: it holds when ok is all True, and
    otherwise row_witness(ok, rows) is its witness."""
    w = row_witness(ok, rows)
    return CheckResult(name, w is None, w)


def first_failing_law(laws: Iterable[tuple]) -> dict | None:
    """The law's name and row_witness(ok, rows) at the first (law, ok,
    rows) of laws with a False in ok; None when every law holds.  A law's
    arrays are dropped before the next law is computed, and no law after
    a failing one is computed."""
    for law, *v in laws:
        w = row_witness(*v)
        del v
        if w:
            return {"law": law, **w}
    return None


def raney_join_criterion(L: Lattice) -> CheckResult:
    """Every x equals the join over t not above x of omega(t)."""
    om = maps.special(L, "omega").values
    got = maps._batch_raney_join(L, L, om[None, :])[0]
    x = np.arange(L.n)
    return verdict("raney_join_criterion", got == x, {"x": x, "computed": got})


def raney_meet_criterion(L: Lattice) -> CheckResult:
    """Every y equals the meet over t not below y of o(t)."""
    res = raney_join_criterion(L.op)
    w = res.witness and {"y": res.witness["x"],
                         "computed": res.witness["computed"]}
    return CheckResult("raney_meet_criterion", res.holds, w)


def distributive_oracle(L: Lattice) -> CheckResult:
    """Triple scan x ^ (y v z) == (x ^ y) v (x ^ z); no transform code."""
    w = distributivity_witness(L)
    witness = None
    if w is not None:
        x, y, z = w
        witness = {
            "x": x, "y": y, "z": z,
            "lhs": int(L.meet[x, L.join[y, z]]),
            "rhs": int(L.join[L.meet[x, y], L.meet[x, z]]),
        }
    return CheckResult("distributive_oracle", w is None, witness)


def criteria_agree(L: Lattice) -> bool:
    """All three verdicts coincide (they must, on finite carriers)."""
    a = raney_join_criterion(L).holds
    b = raney_meet_criterion(L).holds
    c = distributive_oracle(L).holds
    return a == b == c


def completely_join_primes(L: Lattice) -> frozenset[int]:
    """Elements x not below o(x), the join of everything not above x.

    Equivalent to the subset form: x is completely join-prime when every
    subset whose join dominates x already contains a member above x.
    """
    o = maps.special(L, "o").values
    return frozenset(np.flatnonzero(~L.leq[np.arange(L.n), o]).tolist())


def is_smooth(L: Lattice) -> bool:
    """True iff the lattice has no completely join-prime element."""
    return not completely_join_primes(L)


def is_spatial(L: Lattice) -> bool:
    """Every element is the join of the completely join-primes below it."""
    return _spatial(L, sorted(completely_join_primes(L)))


def _spatial(L: Lattice, primes: list[int]) -> bool:
    # entry [x, k] is below[k] where below[k] <= x, else the bottom
    below = np.array([L.bottom, *primes])
    sups = _fold(L.join, np.where(L.leq[below].T, below, L.bottom))
    return bool((sups == np.arange(L.n)).all())


@dataclass
class LatticeProfile:
    name: str | None
    n: int
    chain: bool
    distributive: bool
    completely_distributive: bool
    smooth: bool
    spatial: bool
    join_primes: list[int]

    def as_doc(self) -> dict:
        return asdict(self)


def classify_lattice(L: Lattice,
                     join_criterion: CheckResult | None = None
                     ) -> LatticeProfile:
    """Structure profile; complete distributivity via the join criterion,
    computed here unless its verdict on L is passed in."""
    if join_criterion is None:
        join_criterion = raney_join_criterion(L)
    primes = sorted(completely_join_primes(L))
    return LatticeProfile(
        name=L.name,
        n=L.n,
        chain=is_chain(L),
        distributive=L.is_distributive,
        completely_distributive=join_criterion.holds,
        smooth=not primes,
        spatial=_spatial(L, primes),
        join_primes=primes,
    )

"""Law-check suite: registry of named checks over a lattice corpus.

Each check declares its applicability (carrier size, complete
distributivity, homset bounds) and runs against every corpus member,
producing a pass/fail/skip matrix.  Skips from declared applicability
are expected; a cap tripping mid-run is not, and the CLI treats those
as failures on the built-in corpus.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cd, maps, quantale
from .cd import CheckResult, first_failing_law, verdict
from .errors import CapExceeded
from .lattice import (
    GeneratorSpec,
    Lattice,
    all_posets,
    downset_lattice,
    generate,
    is_chain,
)

VERSION = "0.1.0"

EXHAUSTIVE_N = 4          # full quantification up to this carrier size
SAMPLED_N = 6             # seeded sampling for carriers up to this size
SAMPLE_COUNT = 1000
PAIR_HOMSET_CAP = 1024    # quadratic homset sweeps
CENTER_HOMSET_CAP = 4096  # linear sweep with cheap per-pair work


def builtin_corpus() -> list[Lattice]:
    """Fixed, deterministically ordered and named corpus."""
    out: list[Lattice] = []
    for i in range(1, 7):
        out.append(generate(GeneratorSpec("chain", n=i)))
    for k in range(1, 4):
        out.append(generate(GeneratorSpec("boolean", k=k)))
    out.append(generate(GeneratorSpec("m3")))
    out.append(generate(GeneratorSpec("n5")))
    counts: dict[int, int] = {}
    for p in all_posets(4):
        i = counts.get(p.n, 0)
        counts[p.n] = i + 1
        out.append(downset_lattice(p, name=f"d{p.n}_{i}"))
    out.append(generate(GeneratorSpec("product", a=2, b=3)))
    for seed in range(50):
        L = generate(GeneratorSpec("random", seed=seed, n=3 + seed % 5))
        out.append(L.rename(f"r{seed:02d}"))
    return out


class SuiteContext:
    """Per-run caches: profiles, endo homsets, axioms, cyclic members,
    seeded generators."""

    def __init__(self, seed: int = 0, cap: int = quantale.DEFAULT_CAP):
        self.seed = seed
        self.cap = cap
        # each lambda looks its function up per call, as wrappers rebind it
        self.profile = functools.cache(lambda L: cd.classify_lattice(L))
        self.homset = functools.cache(
            lambda L: quantale.enumerate_homset(L, L, cap))
        self.axioms = functools.cache(
            lambda L: quantale.check_involutive_axioms(L, L, cap))
        self.cyclic = functools.cache(
            lambda L: quantale.cyclic_elements(self.homset(L)))

    def rng(self, L: Lattice, check_id: str) -> np.random.RandomState:
        tag = f"{self.seed}:{check_id}:{L.name}".encode()
        return np.random.RandomState(zlib.crc32(tag) & 0xFFFFFFFF)


@dataclass(frozen=True)
class TheoremCheck:
    """One registry entry: applicability gate plus the check body."""

    id: str
    statement: str
    applies: Callable[[SuiteContext, Lattice], str | None]
    run: Callable[[SuiteContext, Lattice], CheckResult]


_WORDS = "no one two three four five six seven eight nine".split()


def _gate(cd: bool | None = None, min_n: int = 1, max_n: int | None = None,
          max_q: int | None = None):
    """Applicability: at least min_n (below 10) elements, completely
    distributive when cd is True and not when it is False, at most max_n
    elements, and an endo homset whose estimate fits the enumeration cap
    and which has at most max_q members.  They are tested in that order,
    and the first that fails gives the skip reason."""
    def applies(ctx: SuiteContext, L: Lattice) -> str | None:
        if L.n < min_n:
            return f"needs at least {_WORDS[min_n]} elements"
        if cd is not None and ctx.profile(L).completely_distributive != cd:
            return ("needs a completely distributive carrier" if cd else
                    "needs a non completely distributive carrier")
        if max_n is not None and L.n > max_n:
            return f"carrier too large (n={L.n} > {max_n})"
        if max_q is not None:
            est = quantale.homset_estimate(L, L)
            if est > ctx.cap:
                return f"homset estimate {est} beyond enumeration cap"
            if len(ctx.homset(L)) > max_q:
                return f"homset too large (|Q| > {max_q})"
        return None
    return applies


REGISTRY: tuple[TheoremCheck, ...] = ()


def _check(check_id: str, **gate):
    """Register the decorated body, in order, as check `check_id` gated by
    `_gate(**gate)`; its docstring, whitespace collapsed, is the check's
    statement (the id under `python -OO`, which drops docstrings)."""
    def register(run):
        global REGISTRY
        statement = " ".join((run.__doc__ or check_id).split())
        REGISTRY += (TheoremCheck(check_id, statement, _gate(**gate), run),)
        return run
    return register


def _refuted(check_id: str, tag: str, held: bool) -> CheckResult:
    """The verdict of a check that a statement fails: it holds when the
    statement did not, and the witness records that it did."""
    return CheckResult(check_id, not held, {tag: True} if held else None)


def _jc_matrix(ctx: SuiteContext, L: Lattice, check_id: str) -> np.ndarray:
    """Exhaustive jc maps for small carriers, seeded jc samples otherwise."""
    if L.n <= EXHAUSTIVE_N:
        return ctx.homset(L).matrix
    S = maps.sample_monotone_maps(L, L, SAMPLE_COUNT, ctx.rng(L, check_id))
    return maps._batch_interior(L, L, S)


def _monotone_matrix(ctx: SuiteContext, L: Lattice, check_id: str) -> np.ndarray:
    if L.n <= EXHAUSTIVE_N:
        return maps.monotone_maps_array(L, L)
    return maps.sample_monotone_maps(L, L, SAMPLE_COUNT, ctx.rng(L, check_id))


# ------------------------------------------------------------- the checks

@_check("T1")
def _t1(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """special o equals the pointwise join over t of c(t) composed after
    a(t)"""
    o = maps.special(L, "o")
    parts = [
        maps.compose(maps.special(L, "c", t), maps.special(L, "a", t))
        for t in range(L.n)
    ]
    got = maps.pointwise_join(parts, dom=L, cod=L)
    return CheckResult("T1", got == o, None if got == o else {
        "computed": got.values.tolist(), "o": o.values.tolist()})


@_check("T2")
def _t2(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """interior of the upper indicator alpha(x) is the annihilator at
    o(x)"""
    o = maps.special(L, "o").values
    alphas = np.where(L.leq, L.top, L.bottom).astype(np.int32)
    got = maps._batch_interior(L, L, alphas)
    expect = np.where(L.leq[:, o].T, L.bottom, L.top).astype(np.int32)
    return verdict("T2", (got == expect).all(axis=1), {
        "x": np.arange(L.n), "interior": got, "annihilator_at_o(x)": expect})


@_check("T3", max_n=SAMPLED_N, max_q=PAIR_HOMSET_CAP)
def _t3(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """cyclic members of the endo homset all equal constant-top or special
    o"""
    allowed = {maps.special(L, "c", L.top).key, maps.special(L, "o").key}
    extras = [f for f in ctx.cyclic(L) if f.key not in allowed]
    return CheckResult("T3", not extras, None if not extras else {
        "cyclic_but_unexpected": extras[0].values.tolist()})


@_check("T4", min_n=2, max_n=SAMPLED_N, max_q=PAIR_HOMSET_CAP)
def _t4(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """constant-top is never dualizing on carriers with two or more
    elements"""
    top = maps.special(L, "c", L.top)
    return _refuted("T4", "constant_top_dualizing",
                    quantale.is_dualizing(top, ctx.homset(L)).holds)


@_check("T5", max_n=SAMPLED_N, max_q=PAIR_HOMSET_CAP)
def _t5(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """if special o is cyclic and differs from constant-top, the carrier
    meets the meet criterion and the distributivity oracle"""
    o = maps.special(L, "o")
    premise = o != maps.special(L, "c", L.top) and o in ctx.cyclic(L)
    if not premise:
        return CheckResult("T5", True, substantive=False)
    meets = cd.raney_meet_criterion(L)
    conclusion = meets.holds and L.is_distributive
    witness = None if conclusion else {
        "premise": "o cyclic and distinct from constant-top",
        "meet_criterion": meets.holds, "distributive": L.is_distributive}
    return CheckResult("T5", conclusion, witness, substantive=True)


@_check("T6", cd=True, max_q=PAIR_HOMSET_CAP)
def _t6(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """involutive-quantaloid axioms hold on completely distributive
    carriers"""
    res = ctx.axioms(L)
    return CheckResult("T6", res.holds, res.witness)


@_check("T6n", cd=False, max_q=PAIR_HOMSET_CAP)
def _t6n(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """involutive-quantaloid axioms fail on non completely distributive
    carriers"""
    return _refuted("T6n", "axioms_hold_on_non_cd", ctx.axioms(L).holds)


@_check("T7", max_q=CENTER_HOMSET_CAP)
def _t7(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """the composition center is exactly the identity and constant-bottom"""
    Q = ctx.homset(L)
    expect = {maps.identity(L).key, maps.special(L, "c", L.bottom).key}
    got = {f.key for f in quantale.central_elements(Q)}
    return CheckResult("T7", got == expect, None if got == expect else {
        "difference_member": np.frombuffer(next(iter(got ^ expect)),
                                           dtype=np.int32).tolist()})


@_check("T8", cd=True, max_n=SAMPLED_N)
def _t8(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """meet transform then join transform is the identity on jc maps over
    completely distributive carriers"""
    F = _jc_matrix(ctx, L, "T8")
    back = maps._batch_raney_join(L, L, maps._batch_raney_meet(L, L, F))
    return verdict("T8", (back == F).all(axis=1), {"f": F, "roundtrip": back})


@_check("T8n", cd=False)
def _t8n(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """meet transform then join transform moves the identity map on non
    completely distributive carriers"""
    ident = maps.identity(L)
    return _refuted("T8n", "roundtrip_fixed_identity",
                    maps.raney_join(maps.raney_meet(ident)) == ident)


@_check("T9", cd=True, max_n=SAMPLED_N)
def _t9(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """interior equals join transform after omega, and join transform
    equals interior after o, for monotone maps over CD carriers"""
    F = _monotone_matrix(ctx, L, "T9")
    o = maps.special(L, "o").values
    om = maps.special(L, "omega").values
    ints = maps._batch_interior(L, L, F)
    via_omega = maps._batch_raney_join(L, L, F[:, om])
    joins = maps._batch_raney_join(L, L, F)
    via_o = maps._batch_interior(L, L, F[:, o])
    return verdict("T9", ((ints == via_omega) & (joins == via_o)).all(axis=1), {
        "f": F, "interior": ints, "join_transform_after_omega": via_omega,
        "join_transform": joins, "interior_after_o": via_o})


@_check("T9n", cd=False)
def _t9n(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """the interior-via-omega formula fails at the identity map on non
    completely distributive carriers"""
    ident = maps.identity(L)
    via = maps.raney_join(maps.compose(ident, maps.special(L, "omega")))
    return _refuted("T9n", "interior_formula_held_on_non_cd",
                    via == maps.interior(ident))


@_check("T10", max_n=SAMPLED_N)
def _t10(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """join transform is order-preserving, lax over composition with a
    monotone left factor, exact for a jc left factor, and agrees with the
    left adjoint of the meet transform on jc maps"""
    w = first_failing_law(_t10_laws(ctx, L))
    return CheckResult("T10", w is None, w)


def _t10_laws(ctx: SuiteContext, L: Lattice):
    """T10's laws as (law, ok, rows), in order."""
    if L.n <= EXHAUSTIVE_N:
        A = maps.all_maps_array(L, L)
        Mo = maps.monotone_maps_array(L, L)
        J = ctx.homset(L).matrix
    else:
        rng = ctx.rng(L, "T10")
        G = rng.randint(0, L.n, size=(SAMPLE_COUNT // 2, L.n)).astype(np.int32)
        # partner maps pointwise below G, so law 1 has real pairs to see
        A = np.concatenate([G, maps._draw_above(maps._upsets(L.op), G, rng)])
        Mo = maps.sample_monotone_maps(L, L, SAMPLE_COUNT // 2, rng)
        J = maps._batch_interior(L, L, Mo)
    RA = maps._batch_raney_join(L, L, A)
    yield "transform_monotone", (~quantale._pointwise_leq(L, A, A)
                                 | quantale._pointwise_leq(L, RA, RA)), {
        "f": A[:, None], "g": A[None]}

    S, RA_k, counts = _t10_point_keys(L, A, RA)

    def per_left_factor(left: np.ndarray, law) -> np.ndarray:
        """law(transform(d . g), d . transform(g)) at every point, for each
        distinct row d of left and each g in A, from one table per d over
        the point keys, copied back to the repeats of d: a (len(left),
        len(A)) verdict."""
        first, (inverse,) = maps._rank_rows(L.n, left)
        D = left[first]
        lhs = np.full((len(D), len(S)), L.bottom, dtype=np.int32)
        for v in range(L.n):
            lhs = np.where(S[:, v], L.join[lhs, D[:, v, None]], lhs)
        bad = ~law(lhs, D[:, RA_k])
        return ((bad.astype(np.float32) @ counts) == 0)[inverse]

    # lax composition law: transform(m . g) <= m . transform(g), m monotone
    yield "lax_composition", per_left_factor(
        Mo, lambda lhs, rhs: L.leq[lhs, rhs]), {
        "monotone": Mo[:, None], "g": A[None]}
    # exact composition law for join-continuous left factors
    yield "exact_composition", per_left_factor(J, np.equal), {
        "jc": J[:, None], "g": A[None]}
    # left adjoint of meet transform == join transform of right adjoint
    lhs = maps._batch_left_adjoint(L, L, maps._batch_raney_meet(L, L, J))
    rhs = maps._batch_raney_join(L, L, maps._batch_right_adjoint(L, L, J))
    yield "adjoint_bridge", (lhs == rhs).all(axis=1), {
        "f": J,
        "left_adjoint_of_meet_transform": lhs,
        "join_transform_of_right_adjoint": rhs}


def _t10_point_keys(L: Lattice, A: np.ndarray, RA: np.ndarray):
    """The distinct keys (S, RA[g, x]) over the points (g, x) of the rows g
    of A, with S = {A[g, t] : x not<= t} the value set of g over
    U_x = {t : x not<= t}: the (K, n) 0/1 rows of S, the (K,) values of
    RA, and the (K, len(A)) float32 count of each key among g's points.

    Both sides of T10's composition laws at a point depend on its key
    alone: transform(d . g)(x) is the join of d over g(U_x) = S, and
    d(transform(g)(x)) is d at RA[g, x].  So a law holds for (d, g)
    exactly when the keys where it fails for d have count 0 at g, and a
    0/1 table over the keys times the counts gives that count; the counts
    are at most n, which float32 holds exactly.  RA is the kernel's
    transform of A, so every comparison still runs through it."""
    onehot = np.eye(L.n, dtype=np.float32)[A]            # [g, t, v]
    S = ((~L.leq).astype(np.float32) @ onehot > 0).reshape(-1, L.n)
    RA = RA.ravel()
    # the 0/1 rows of S and the values of RA are all below n + 1
    first, (ids,) = maps._rank_rows(L.n + 1, np.column_stack([S, RA]))
    K = len(first)
    counts = np.bincount(np.arange(len(ids)) // L.n * K + ids,
                         minlength=len(A) * K).reshape(len(A), K).T
    return S[first], RA[first], counts.astype(np.float32)


@_check("T11")
def _t11(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """special o sits below the identity exactly on chains and above it
    exactly on smooth carriers"""
    o = maps.special(L, "o").values
    idx = np.arange(L.n)
    mix = bool(L.leq[o, idx].all())
    comix = bool(L.leq[idx, o].all())
    chain = is_chain(L)
    smooth = ctx.profile(L).smooth
    holds = (mix == chain) and (comix == smooth)
    return CheckResult("T11", holds, None if holds else {
        "o_below_id": mix, "chain": chain, "id_below_o": comix,
        "smooth": smooth})


@_check("T12", cd=True, max_n=EXHAUSTIVE_N, max_q=PAIR_HOMSET_CAP)
def _t12(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """big_meet of a pair is the interior of the pointwise meet and the
    enumerated homset infimum on CD carriers"""
    Q = ctx.homset(L)
    F = Q.matrix
    meets = L.meet[F[:, None], F[None]]           # [i, j, x] = (f_i ^ f_j)(x)
    flat = meets.reshape(-1, L.n)
    got = maps._batch_big_meet(L, L, flat).reshape(meets.shape)
    via_interior = maps._batch_interior(L, L, flat).reshape(meets.shape)
    # element k of the homset lattice is member k, so its meet table
    # indexes the members
    inf = F[quantale.homset_lattice(Q).meet]
    return verdict("T12", ((got == via_interior) & (got == inf)).all(axis=-1), {
        "f": F[:, None], "g": F[None], "big_meet": got,
        "interior_of_meet": via_interior, "enumerated_infimum": inf})


@_check("T12n", cd=False)
def _t12n(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """big_meet differs from the interior of the pointwise meet at the
    identity pair on non CD carriers"""
    ident = maps.identity(L)
    return _refuted("T12n", "big_meet_matched_on_non_cd",
                    maps.big_meet([ident, ident])
                    == maps.interior(maps.pointwise_meet([ident, ident])))


@_check("T13", max_q=PAIR_HOMSET_CAP)
def _t13(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """distributivity oracle, involutive axioms, and existence of a cyclic
    dualizing element agree"""
    Q = ctx.homset(L)
    oracle = L.is_distributive
    axioms = ctx.axioms(L).holds
    found = [f for f in ctx.cyclic(L) if quantale.is_dualizing(f, Q).holds]
    holds = oracle == axioms == bool(found)
    return CheckResult("T13", holds, None if holds else {
        "distributive_oracle": oracle, "involutive_axioms": axioms,
        "cyclic_dualizing_found": [f.values.tolist() for f in found]})


@_check("T14", cd=True, max_n=EXHAUSTIVE_N, max_q=PAIR_HOMSET_CAP)
def _t14(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """residual-via-transform formulas plus full triangle rotation hold on
    small completely distributive carriers"""
    res = ctx.axioms(L)
    rotation = bool(res.info.get("rotation_checked"))
    holds = res.holds and rotation
    witness = res.witness if not res.holds else (
        None if rotation else {"rotation_not_covered": True})
    return CheckResult("T14", holds, witness)


CHECK_IDS = tuple(c.id for c in REGISTRY)


@dataclass
class SuiteReport:
    corpus: list[str]
    checks: list[str]
    results: dict[str, dict[str, CheckResult]]
    seed: int
    version: str = VERSION

    @property
    def summary(self) -> dict:
        counts = {"cells": 0, "pass": 0, "fail": 0, "skip": 0,
                  "unexpected_skip": 0, "vacuous_pass": 0}
        for row in self.results.values():
            for cell in row.values():
                counts["cells"] += 1
                counts[cell.status] = counts.get(cell.status, 0) + 1
                if cell.status == "skip" and not cell.expected:
                    counts["unexpected_skip"] += 1
                if cell.status == "pass" and cell.substantive is False:
                    counts["vacuous_pass"] += 1
        return counts

    @property
    def ok(self) -> bool:
        s = self.summary
        return s["fail"] == 0 and s["unexpected_skip"] == 0

    def as_doc(self, timing: bool = False) -> dict:
        return {
            "corpus": self.corpus,
            "checks": self.checks,
            "results": {
                check: {name: cell.cell_doc(timing) for name, cell in row.items()}
                for check, row in self.results.items()
            },
            "summary": self.summary,
            "seed": self.seed,
            "version": self.version,
        }

    def render_text(self) -> str:
        width = max(len(n) for n in self.corpus) if self.corpus else 4
        cols = [c.rjust(5) for c in self.checks]
        lines = [" " * width + "".join(cols)]
        symbol = {"pass": "+", "fail": "F"}
        for name in self.corpus:
            row = []
            for check in self.checks:
                cell = self.results[check][name]
                if cell.status == "skip":
                    row.append("." if cell.expected else "!")
                elif cell.status == "pass" and cell.substantive is False:
                    row.append("v")
                else:
                    row.append(symbol[cell.status])
            lines.append(name.ljust(width) + "".join(s.rjust(5) for s in row))
        lines.append("")
        lines.append("legend: + pass, v vacuous pass, F fail, "
                     ". skip (declared), ! skip (cap hit)")
        s = self.summary
        lines.append(
            f"cells {s['cells']}: {s['pass']} pass "
            f"({s['vacuous_pass']} vacuous), {s['fail']} fail, "
            f"{s['skip']} skip ({s['unexpected_skip']} unexpected)")
        for check, row in self.results.items():
            for name, cell in row.items():
                if cell.status == "fail":
                    lines.append(f"FAIL {check} on {name}: {cell.witness}")
                elif cell.status == "skip" and not cell.expected:
                    lines.append(f"UNEXPECTED SKIP {check} on {name}: {cell.reason}")
        return "\n".join(lines) + "\n"


def run_suite(corpus: list[Lattice] | None = None,
              checks: list[str] | None = None,
              seed: int = 0,
              cap: int = quantale.DEFAULT_CAP) -> SuiteReport:
    """Run the registry (or a subset) over the corpus (builtin by default)."""
    if corpus is None:
        corpus = builtin_corpus()
    names = [L.name for L in corpus]
    twice = [x for k, x in enumerate(names) if x in names[:k]]
    if twice:    # a cell per (check, name): one carrier would hide another
        raise ValueError(f"corpus has two carriers named {twice[0]!r}")
    registry = list(REGISTRY)
    if checks is not None:
        unknown = set(checks) - set(CHECK_IDS)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
        registry = [c for c in registry if c.id in set(checks)]
    ctx = SuiteContext(seed=seed, cap=cap)
    results: dict[str, dict[str, CheckResult]] = {}
    for chk in registry:
        row: dict[str, CheckResult] = {}
        for L in corpus:
            reason = chk.applies(ctx, L)
            if reason is not None:
                row[L.name] = CheckResult(chk.id, False, reason=reason)
                continue
            try:
                row[L.name] = cd.timed(chk.run, ctx, L)
            except CapExceeded as e:
                row[L.name] = CheckResult(chk.id, False, reason=str(e),
                                          expected=False)
        results[chk.id] = row
    return SuiteReport(
        corpus=names,
        checks=[c.id for c in registry],
        results=results,
        seed=seed,
    )

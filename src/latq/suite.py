"""Law-check suite: registry of named checks over a lattice corpus.

Each check declares its applicability (carrier size, complete
distributivity, homset bounds) and runs against every corpus member,
producing a pass/fail/skip matrix.  Skips from declared applicability
are expected; a cap tripping mid-run is not, and the CLI treats those
as failures on the built-in corpus.  A run goes carrier by carrier and
drops a carrier's facts after the last member equal to it, so the facts
it holds do not grow with the corpus.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cd, maps, quantale
from .cd import CheckResult, first_failing_law, verdict
from .errors import CapExceeded, HomsetTooLarge
from .lattice import (
    GeneratorSpec,
    Lattice,
    _fold,
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
    """Per-run facts, kept by carrier: each carrier's endo homset (or its
    refusal), axiom verdict, cyclic members, dualizing verdicts and, per
    name, map family (`family`).  Equal carriers share one entry, and
    `release` drops it.  Each fact looks its function up per call, as
    wrappers rebind it."""

    def __init__(self, seed: int = 0, cap: int = quantale.DEFAULT_CAP):
        self.seed = seed
        self.cap = cap
        self.facts: dict[Lattice, dict] = {}

    def _fact(self, L: Lattice, key, make: Callable, *args):
        """make(*args), made once for L's carrier under key; a refusal is
        kept too, and raised again on every call."""
        facts = self.facts.setdefault(L, {})
        if key not in facts:
            try:
                facts[key] = make(*args)
            except CapExceeded as e:
                facts[key] = e
        if isinstance(facts[key], CapExceeded):
            raise facts[key].with_traceback(None)
        return facts[key]

    def release(self, L: Lattice) -> None:
        """Drop every fact of L's carrier, under every name."""
        self.facts.pop(L, None)

    def homset(self, L: Lattice) -> quantale.HomsetEnumeration:
        """L's endo homset, refused past `CENTER_HOMSET_CAP` members, the
        largest a gate admits: no gate reads a larger one."""
        return self._fact(L, "homset", lambda: quantale.enumerate_homset(
            L, L, self.cap, limit=CENTER_HOMSET_CAP))

    def axioms(self, L: Lattice) -> CheckResult:
        return self._fact(L, "axioms", quantale.check_involutive_axioms,
                          L, L, self.cap)

    def cyclic(self, L: Lattice) -> list[maps.LatMap]:
        return self._fact(L, "cyclic", quantale.cyclic_elements,
                          self.homset(L))

    def dualizing(self, f: maps.LatMap) -> bool:
        return self._fact(f.dom, ("dualizing", f.key), lambda: (
            quantale.is_dualizing(f, self.homset(f.dom)).holds))

    def family(self, L: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, Mo, J), the maps, monotone maps and jc maps L -> L that T8,
        T9 and T10 quantify over (Mo and J are T10's left factors): all of
        them up to EXHAUSTIVE_N elements, else SAMPLE_COUNT draws of A and
        Mo from one stream seeded by the run seed and L's name, so equal
        carriers under two names draw apart.  J is the interior of Mo: a jc
        map is its own interior, so all of Mo gives the endo homset.  Each
        part keeps the distinct rows of its draws, in first-drawn order.

        That changes no verdict and no witness.  Every law of T8, T9 and
        T10 is a function of its row, or of its pair of rows, alone, so a
        repeat repeats its first occurrence's verdict.  The first failing
        row, or row-major pair, of the draws is a first occurrence in each
        place: an earlier copy would fail before it.  First occurrences keep
        their order, so `row_witness` meets the same values first among the
        distinct rows.  The interior of a repeat is a repeat, so the
        distinct rows of J are those of the interior of the distinct Mo, in
        the same order."""
        return self._fact(L, ("family", L.name), self._draw_family, L)

    def _draw_family(self, L: Lattice):
        if L.n <= EXHAUSTIVE_N:
            A, Mo = maps.all_maps_array(L, L), maps.monotone_maps_array(L, L)
        else:
            tag = f"{self.seed}:{L.name}".encode()
            rng = np.random.RandomState(zlib.crc32(tag) & 0xFFFFFFFF)
            G = rng.randint(0, L.n, (SAMPLE_COUNT // 2, L.n)).astype(np.int32)
            # partners pointwise below G, so T10's first law has real pairs
            A = np.vstack([G, maps._draw_above(maps._upsets(L.op), G, rng)])
            Mo = maps.sample_monotone_maps(L, L, SAMPLE_COUNT, rng)

        def distinct(F):
            return F[np.sort(maps._rank_rows(L.n, F)[0])]

        Mo = distinct(Mo)
        return distinct(A), Mo, distinct(maps._batch_interior(L, L, Mo))


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
    distributive (`Lattice.is_distributive`) when cd is True and not when
    it is False, at most max_n elements, and an endo homset that
    `enumerate_homset` admits under the run's cap and which has at most
    max_q members.  They are tested in that order, and the first that
    fails gives the skip reason: for a homset refused by its estimate,
    the refusal's own message.  The homset fact stops past
    `CENTER_HOMSET_CAP` members (`SuiteContext.homset`), so a larger
    max_q is refused here."""
    if max_q is not None and max_q > CENTER_HOMSET_CAP:
        raise ValueError(f"max_q {max_q} exceeds the homset fact's limit "
                         f"{CENTER_HOMSET_CAP}")

    def applies(ctx: SuiteContext, L: Lattice) -> str | None:
        if L.n < min_n:
            return f"needs at least {_WORDS[min_n]} elements"
        if cd is not None and L.is_distributive != cd:
            return ("needs a completely distributive carrier" if cd else
                    "needs a non completely distributive carrier")
        if max_n is not None and L.n > max_n:
            return f"carrier too large (n={L.n} > {max_n})"
        if max_q is not None:
            try:
                too_large = len(ctx.homset(L)) > max_q
            except HomsetTooLarge:
                too_large = True
            except CapExceeded as e:
                return str(e)
            if too_large:
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


# ------------------------------------------------------------- the checks

@_check("T1")
def _t1(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """special o equals the pointwise join over t of c(t) composed after
    a(t)"""
    o = maps.special(L, "o").values
    parts = np.take_along_axis(maps.special_table(L, "c"),
                               maps.special_table(L, "a"), axis=1)
    got = _fold(L.join, parts.T)
    held = bool((got == o).all())
    return CheckResult("T1", held, None if held else {
        "computed": got.tolist(), "o": o.tolist()})


@_check("T2")
def _t2(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """interior of the upper indicator alpha(x) is the annihilator at
    o(x)"""
    o = maps.special(L, "o").values
    got = maps._batch_interior(L, L, maps.special_table(L, "alpha"))
    expect = maps.special_table(L, "a", o)
    return verdict("T2", (got == expect).all(axis=1), {
        "x": np.arange(L.n), "interior": got, "annihilator_at_o(x)": expect})


@_check("T3", max_n=SAMPLED_N, max_q=PAIR_HOMSET_CAP)
def _t3(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """cyclic members of the endo homset all equal constant-top or special
    o"""
    allowed = {maps.special(L, "c", L.top), maps.special(L, "o")}
    extras = [f for f in ctx.cyclic(L) if f not in allowed]
    return CheckResult("T3", not extras, None if not extras else {
        "cyclic_but_unexpected": extras[0].values.tolist()})


@_check("T4", min_n=2, max_n=SAMPLED_N, max_q=PAIR_HOMSET_CAP)
def _t4(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """constant-top is never dualizing on carriers with two or more
    elements"""
    top = maps.special(L, "c", L.top)
    return _refuted("T4", "constant_top_dualizing", ctx.dualizing(top))


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
    expect = {maps.identity(L), maps.special(L, "c", L.bottom)}
    got = set(quantale.central_elements(Q))
    return CheckResult("T7", got == expect, None if got == expect else {
        "difference_member": next(iter(got ^ expect)).values.tolist()})


@_check("T8", cd=True, max_n=SAMPLED_N)
def _t8(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """meet transform then join transform is the identity on jc maps over
    completely distributive carriers"""
    F = ctx.family(L)[2]
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
    F = ctx.family(L)[1]
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
    A, Mo, J = ctx.family(L)
    RA = maps._batch_raney_join(L, L, A)
    yield "transform_monotone", (~quantale._pointwise_leq(L, A, A)
                                 | quantale._pointwise_leq(L, RA, RA)), {
        "f": A[:, None], "g": A[None]}

    S, RA_k, ids = _t10_point_keys(L, A, RA)
    keys = maps._padded(S, L.n)    # pad n: a bottom column on each factor

    def per_left_factor(D: np.ndarray, law) -> np.ndarray:
        """law(transform(d . g), d . transform(g)) at every point, for each
        row d of D and each g in A, from one table per d over the point
        keys, read at each point's key: a (len(D), len(A)) verdict."""
        D = np.pad(D, [(0, 0), (0, 1)], constant_values=L.bottom)
        # a row per key, so each point gathers whole rows
        good = np.ascontiguousarray(
            law(maps._gathered_joins(L.join, D, keys), D[:, RA_k]).T)
        ok = np.ones((len(A), len(D)), dtype=bool)
        for x in range(L.n):
            ok &= good[ids[:, x]]
        return ok.T

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
    RA, and the (len(A), n) ids of the keys at each point.

    Both sides of T10's composition laws at a point depend on its key
    alone: transform(d . g)(x) is the join of d over g(U_x) = S, and
    d(transform(g)(x)) is d at RA[g, x].  So a law holds for (d, g)
    exactly when it holds for d at the key of each point of g.  RA is
    the kernel's transform of A, so every comparison still runs through
    it."""
    onehot = np.eye(L.n, dtype=np.float32)[A]            # [g, t, v]
    S = ((~L.leq).astype(np.float32) @ onehot > 0).reshape(-1, L.n)
    RA = RA.ravel()
    # the 0/1 rows of S and the values of RA are all below n + 1
    first, (ids,) = maps._rank_rows(L.n + 1, np.column_stack([S, RA]))
    return S[first], RA[first], ids.reshape(len(A), L.n)


@_check("T11")
def _t11(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """special o sits below the identity exactly on chains and above it
    exactly on smooth carriers"""
    o = maps.special(L, "o").values
    idx = np.arange(L.n)
    mix = bool(L.leq[o, idx].all())
    comix = bool(L.leq[idx, o].all())
    chain = is_chain(L)
    smooth = cd.is_smooth(L)
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
    oracle = L.is_distributive
    axioms = ctx.axioms(L).holds
    found = [f for f in ctx.cyclic(L) if ctx.dualizing(f)]
    holds = oracle == axioms == bool(found)
    return CheckResult("T13", holds, None if holds else {
        "distributive_oracle": oracle, "involutive_axioms": axioms,
        "cyclic_dualizing_found": [f.values.tolist() for f in found]})


@_check("T14", cd=True, max_n=EXHAUSTIVE_N, max_q=PAIR_HOMSET_CAP)
def _t14(ctx: SuiteContext, L: Lattice) -> CheckResult:
    """residual-via-transform formulas plus full triangle rotation hold on
    small completely distributive carriers"""
    res = ctx.axioms(L)
    return CheckResult("T14", res.holds, res.witness)


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
        marks = Counter(cell.mark for row in self.results.values()
                        for cell in row.values())
        return {"cells": marks.total(), "pass": marks["+"] + marks["v"],
                "fail": marks["F"], "skip": marks["."] + marks["!"],
                "unexpected_skip": marks["!"], "vacuous_pass": marks["v"]}

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
        lines = [" " * width + "".join(c.rjust(5) for c in self.checks)]
        for name in self.corpus:
            lines.append(name.ljust(width) + "".join(
                self.results[check][name].mark.rjust(5)
                for check in self.checks))
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
                if cell.mark == "F":
                    lines.append(f"FAIL {check} on {name}: {cell.witness}")
                elif cell.mark == "!":
                    lines.append(f"UNEXPECTED SKIP {check} on {name}: {cell.reason}")
        return "\n".join(lines) + "\n"


def run_suite(corpus: list[Lattice] | None = None,
              checks: list[str] | None = None,
              seed: int = 0,
              cap: int = quantale.DEFAULT_CAP) -> SuiteReport:
    """Run the registry (or a subset) over the corpus (builtin by default),
    carrier-major: every check on one carrier, then the next.  The facts
    of a carrier are released after the last corpus member equal to it.
    Cells are reported check by check, each row in corpus order."""
    if corpus is None:
        corpus = builtin_corpus()
    names = [L.name for L in corpus]
    if None in names:    # cells and sampled maps are keyed by the name
        raise ValueError("corpus has an unnamed carrier")
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
    results: dict[str, dict[str, CheckResult]] = {c.id: {} for c in registry}
    last = {L: k for k, L in enumerate(corpus)}
    for k, L in enumerate(corpus):
        for chk in registry:
            row = results[chk.id]
            reason = chk.applies(ctx, L)
            if reason is not None:
                row[L.name] = CheckResult(chk.id, False, reason=reason)
                continue
            try:
                row[L.name] = cd.timed(chk.run, ctx, L)
            except CapExceeded as e:
                row[L.name] = CheckResult(chk.id, False, reason=str(e),
                                          expected=False)
        if last[L] == k:
            ctx.release(L)
    return SuiteReport(
        corpus=names,
        checks=[c.id for c in registry],
        results=results,
        seed=seed,
    )

"""Layer spans recorded from outside the program.

`install` replaces functions of the `latq` modules with wrappers that
record one span per call: name, start, end, parent, and a small dict of
work counts.  Every module attribute bound to a wrapped function is
replaced, which includes the names `quantale` and `docio` import with
`from .maps import ...` and `from .lattice import ...`; the `applies`
and `run` of each `suite.REGISTRY` entry are wrapped as well.  Spans stay
in memory and are written out once, at the end of the traced process.
`install_peak` wraps the axiom sweep alone, with `tracemalloc` on, for a
separate process that replays the sweeps a traced process recorded and
whose times are not used.

`summarize` turns a span list into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import tracemalloc

LAYERS = ("lattice", "docio", "cd", "maps", "quantale", "suite", "cli")
KERNELS = ("interior", "raney_join", "raney_meet", "right_adjoint",
           "left_adjoint")
ROOT = "bench.workload"


class Recorder:
    """In-memory span list; each span is [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, peak: bool = False):
        """Wrapper recording a span around fn.

        count(args, kwargs, result) returns the span's info dict; it runs
        after the span has closed.  peak=True measures the tracemalloc
        peak inside the call, in bytes, as info["peak"]; tracemalloc slows
        every allocation, so a process that measures peaks gives no times.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec.close(idx)
                if peak:
                    tracemalloc.stop()
                rec.spans[idx][4] = {"raised": type(e).__name__}
                raise
            rec.close(idx)
            info = count(args, kwargs, out) if count else None
            if peak:
                info = dict(info or {}, peak=tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            rec.spans[idx][4] = info
            return out

        return traced


# ------------------------------------------------------------ counters

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_count(args, kwargs, out):
    return {"rows": int(out.shape[0]), "cells": int(out.size)}


def _sample_count(args, kwargs, out):
    return {"rows": int(out.shape[0])}


def _lattice_count(args, kwargs, out):
    return {"n": int(out.n)}


def _enumerate_count(args, kwargs, out):
    dom, cod = _arg(args, kwargs, 0, "dom"), _arg(args, kwargs, 1, "cod")
    return {"kept": len(out), "nd": not dom.is_distributive,
            "estimate": cod.n ** len(dom.join_irreducibles)}


def _axioms_count(args, kwargs, out):
    """Homset size, and the arguments a replay of the sweep needs."""
    cap = args[2] if len(args) > 2 else kwargs.get("cap")
    return {"homset": int(out.info["homset_size"]),
            "dom": _arg(args, kwargs, 0, "L").name,
            "cod": _arg(args, kwargs, 1, "M").name, "cap": cap}


def _detector_single(args, kwargs, out):
    return {"rows": len(_arg(args, kwargs, 1, "Q"))}


def _detector_all(args, kwargs, out):
    Q = _arg(args, kwargs, 0, "Q")
    return {"rows": len(Q) * len(Q)}


# (module, attribute, count); the span name is "<layer>.<attribute>".
TARGETS = (
    ("lattice", "build_poset", None),
    ("lattice", "build_lattice", _lattice_count),
    ("lattice", "generate", None),
    ("lattice", "distributivity_witness", None),
    ("docio", "load_lattice", None),
    ("docio", "dumps", None),
    ("cd", "classify_lattice", None),
    ("cd", "raney_join_criterion", None),
    ("cd", "raney_meet_criterion", None),
    ("cd", "distributive_oracle", None),
    *(("maps", f"_batch_{k}", _kernel_count) for k in KERNELS),
    ("maps", "sample_monotone_maps", _sample_count),
    ("maps", "monotone_maps_array", _sample_count),
    ("maps", "special", None),
    ("quantale", "enumerate_homset", _enumerate_count),
    ("quantale", "check_involutive_axioms", _axioms_count),
    ("quantale", "cyclic_elements", None),
    ("quantale", "dualizing_elements", None),
    ("quantale", "central_elements", _detector_all),
    ("quantale", "is_cyclic", _detector_single),
    ("quantale", "is_dualizing", _detector_single),
    ("suite", "run_suite", None),
    ("cli", "main", None),
)
AXIOMS = "quantale.check_involutive_axioms"


def _replace(fn, traced) -> None:
    """Rebind fn to traced in every loaded latq module that binds it."""
    for k, m in list(sys.modules.items()):
        if (k == "latq" or k.startswith("latq.")) and m is not None:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, traced)


def install_peak(rec: Recorder) -> None:
    """Wrap only the axiom sweep, measuring its tracemalloc peak."""
    layer, attr = AXIOMS.split(".")
    fn = getattr(sys.modules[f"latq.{layer}"], attr)
    _replace(fn, rec.wrap(AXIOMS, fn, _axioms_count, peak=True))


def install(rec: Recorder) -> None:
    """Wrap every target, and every REGISTRY entry's applies and run."""
    import latq.suite

    for layer, attr, count in TARGETS:
        fn = getattr(sys.modules[f"latq.{layer}"], attr)
        _replace(fn, rec.wrap(f"{layer}.{attr}", fn, count))
    registry = tuple(
        dataclasses.replace(
            chk,
            applies=rec.wrap(f"suite.applies.{chk.id}", chk.applies),
            run=rec.wrap(f"suite.run.{chk.id}", chk.run))
        for chk in latq.suite.REGISTRY)
    _replace(latq.suite.REGISTRY, registry)


# ------------------------------------------------------------- summary

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _outermost(spans: list[list], names) -> list[list]:
    """Spans named in `names` with no ancestor named in `names`."""
    inside = [False] * len(spans)
    keep = []
    for i, s in enumerate(spans):
        p = s[3]
        inside[i] = s[0] in names or (p >= 0 and inside[p])
        if s[0] in names and not (p >= 0 and inside[p]):
            keep.append(s)
    return keep


def _ms(spans) -> float:
    return sum(s[2] - s[1] for s in spans) * 1e3


def named_in(spans: list[list], name: str) -> list[list]:
    return [s for s in spans if s[0] == name]


def _info(spans, key: str) -> list:
    return [s[4][key] for s in spans if s[4] and key in s[4]]


def summarize(spans: list[list], peak_spans: list[list],
              check_ids) -> dict[str, float]:
    """Per-layer metrics of one traced workload process, as name -> value.

    `peak_spans` come from a second process in which `install_peak` alone
    was active; they give `quantale.axioms_peak_mb`.
    """
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def outer(*names):
        return _outermost(spans, set(names))

    m: dict[str, float] = {}
    for k in KERNELS:
        calls = named(f"maps._batch_{k}")
        ms = _ms(calls)
        cells = sum(_info(calls, "cells"))
        m[f"maps.{k}_ms"] = ms
        m[f"maps.{k}_rows"] = sum(_info(calls, "rows"))
        m[f"maps.{k}_ns_per_cell"] = ms * 1e6 / cells if cells else 0.0
    sample = outer("maps.sample_monotone_maps", "maps.monotone_maps_array")
    m["maps.sample_ms"] = _ms(sample)
    m["maps.sample_rows"] = sum(_info(sample, "rows"))
    special = outer("maps.special")
    m["maps.special_ms"] = _ms(special)
    m["maps.special_calls"] = len(named("maps.special"))

    enum = outer("quantale.enumerate_homset")
    done = [s for s in enum if s[4] and "kept" in s[4]]
    nd = [s for s in done if s[4]["nd"]]
    kept = sum(_info(done, "kept"))
    m["quantale.enumerate_ms"] = _ms(enum)
    m["quantale.enumerate_calls"] = len(enum)
    m["quantale.maps_kept"] = kept
    m["quantale.enumerate_nd_ms"] = _ms(nd)
    m["quantale.enumerate_nd_calls"] = len(nd)
    m["quantale.enumerate_refused"] = sum(
        1 for s in enum if s[4] and s[4].get("raised") == "CapExceeded")
    m["quantale.estimate_over_kept"] = (
        sum(_info(done, "estimate")) / kept if kept else 0.0)

    selfs = self_times(spans)
    ax_idx = [i for i, s in enumerate(spans)
              if s[0] == AXIOMS]
    ax = [spans[i] for i in ax_idx]
    m["quantale.axioms_ms"] = sum(selfs[i] for i in ax_idx) * 1e3
    m["quantale.axioms_calls"] = len(ax)
    m["quantale.axioms_pairs"] = sum(b * b for b in _info(ax, "homset"))
    m["quantale.axioms_peak_mb"] = max(
        _info(named_in(peak_spans, AXIOMS), "peak"), default=0) / 2**20
    m["quantale.cyclic_ms"] = _ms(outer("quantale.cyclic_elements",
                                        "quantale.is_cyclic"))
    m["quantale.dualizing_ms"] = _ms(outer("quantale.dualizing_elements",
                                           "quantale.is_dualizing"))
    m["quantale.central_ms"] = _ms(outer("quantale.central_elements"))
    m["quantale.detector_rows"] = sum(_info(
        outer("quantale.is_cyclic", "quantale.is_dualizing",
              "quantale.central_elements"), "rows"))

    m["lattice.build_ms"] = _ms(outer("lattice.build_poset",
                                      "lattice.build_lattice",
                                      "lattice.generate"))
    m["lattice.elements_built"] = sum(_info(named("lattice.build_lattice"), "n"))
    m["lattice.distributivity_ms"] = _ms(outer("lattice.distributivity_witness"))
    m["docio.load_ms"] = _ms(outer("docio.load_lattice"))
    m["docio.dumps_ms"] = _ms(outer("docio.dumps"))
    m["cd.classify_ms"] = _ms(outer("cd.classify_lattice"))
    m["cd.classify_calls"] = len(named("cd.classify_lattice"))

    m["suite.gate_ms"] = _ms(outer(*(f"suite.applies.{c}" for c in check_ids)))
    for c in check_ids:
        m[f"suite.check_ms.{c}"] = _ms(named(f"suite.run.{c}"))
    m["cli.main_ms"] = _ms(outer("cli.main"))

    for layer in ("bench", *LAYERS):
        m[f"{layer}.self_ms"] = 0.0
    for s, t in zip(spans, selfs):
        m[f"{s[0].split('.')[0]}.self_ms"] += t * 1e3
    m["trace.wall_ms"] = _ms(named(ROOT))
    m["trace.spans"] = len(spans)
    return m

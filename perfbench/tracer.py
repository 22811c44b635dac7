"""Spans around the package's layer functions, recorded from outside ``src/``.

Each traced function is replaced at its import sites (the module attributes
through which callers look it up) by a wrapper that appends one span
``[name, start, end, parent, problem, counts, peak_mb]`` to an in-memory
list.  Nothing is written until the run ends.  ``install`` swaps the wrappers
in and ``uninstall`` puts the original functions back, so one process can
alternate traced and untraced problems.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, PROBLEM, COUNTS, PEAK_MB = range(7)
ROOT = "problem"
MEMORY_LAYERS = ("weights", "extraction", "theory")


def _solve_counts(state):
    return {"iters": state.iters, "unconverged": int(not state.converged)}


def _fused_pairs(assignment):
    sizes = np.bincount(assignment.labels)
    return {"fused_pairs": int((sizes * (sizes - 1) // 2).sum())}


# (modules whose attribute is replaced, attribute, span name, count hook).
# A function is listed under every module that calls it by a bare name.
TARGETS = (
    (("convexcluster.cli",), "main", "cli.main", None),
    (("convexcluster.datagen",), "load_csv", "datagen.load_csv", None),
    (("convexcluster.cli", "convexcluster.weights"), "gaussian_edges",
     "weights.gaussian_edges", lambda e: {"edges": e.n_edges}),
    (("convexcluster.cli", "convexcluster.extraction", "convexcluster.solver"), "admm_solve",
     "solver.admm_solve", _solve_counts),
    (("convexcluster.cli", "convexcluster.extraction"), "extract_clusters",
     "extraction.extract_clusters", _fused_pairs),
    (("convexcluster.cli", "convexcluster.extraction"), "find_c_for_k",
     "extraction.find_c_for_k", lambda pt: {"misses": int(pt is None)}),
    (("convexcluster.cli", "convexcluster.theory"), "search_feasible_r",
     "theory.search_feasible_r", None),
    (("convexcluster.cli", "convexcluster.theory"), "feasibility_report",
     "theory.feasibility_report", None),
    (("convexcluster.theory",), "c_interval_k", "theory.c_interval_k", None),
    (("convexcluster.theory",), "separation_check", "theory.separation_check", None),
    (("convexcluster.cli", "convexcluster.baselines"), "lloyd", "baselines.lloyd",
     lambda res: {"iters": res.iterations}),
    (("convexcluster.cli",), "kmeanspp_init", "baselines.kmeanspp_init", None),
    (("convexcluster.cli",), "hierarchical", "baselines.hierarchical", None),
    (("convexcluster.cli", "convexcluster.metrics"), "rand_index", "metrics.rand_index", None),
)


def layer_of(name: str) -> str:
    return "unattributed" if name == ROOT else name.split(".", 1)[0]


class Tracer:
    """Span recorder.  ``track_memory`` adds a tracemalloc peak, in MB of
    new allocations, to every span of a layer in ``MEMORY_LAYERS``."""

    def __init__(self, problem=None, track_memory: bool = False):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._mem: list[list[float]] = []  # [current at entry, peak so far]
        self._saved: list[tuple] = []
        self.problem = problem
        self.track_memory = track_memory

    # ------------------------------------------------------------ recording

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.problem, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if self.track_memory and layer_of(name) in MEMORY_LAYERS:
            if not self._mem:
                tracemalloc.start()
            else:
                self._mem[-1][1] = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            current = tracemalloc.get_traced_memory()[0]
            self._mem.append([current, current])
            rec[PEAK_MB] = 0.0
        rec[START] = perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        if rec[PEAK_MB] is not None:
            entry, peak = self._mem.pop()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            rec[PEAK_MB] = (peak - entry) / 2**20
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()

    @contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            if count is not None:
                rec[COUNTS] = count(result)
            return result
        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for modules, attr, name, count in TARGETS:
            for modname in modules:
                mod = importlib.import_module(modname)
                orig = getattr(mod, attr)
                if orig not in wrapped:
                    wrapped[orig] = self.wrap(name, orig, count)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, wrapped[orig])

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span never overlap (one thread), so the covered time is
    the sum of their durations.
    """
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def problem_summary(spans: list[list]) -> dict:
    """Per-name and per-layer totals for the spans of one problem.

    ``spans`` must hold exactly one root span, with parent indices local to
    the list.  ``consistent`` is False when a child escapes its parent's
    interval or the self times do not add up to the root's duration.
    """
    selfs = self_times(spans)
    roots = [i for i, rec in enumerate(spans) if rec[PARENT] < 0]
    if len(roots) != 1 or spans[roots[0]][NAME] != ROOT:
        raise ValueError("a problem must have exactly one root span")
    root = spans[roots[0]]
    latency = root[END] - root[START]
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = {}
    consistent = all(s >= -1e-9 for s in selfs)
    for i, rec in enumerate(spans):
        name = rec[NAME]
        entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "counts": {}, "peak_mb": 0.0})
        entry["calls"] += 1
        entry["s"] += rec[END] - rec[START]
        entry["self_s"] += selfs[i]
        for key, val in (rec[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + val
        if rec[PEAK_MB] is not None:
            entry["peak_mb"] = max(entry["peak_mb"], rec[PEAK_MB])
        by_layer[layer_of(name)] = by_layer.get(layer_of(name), 0.0) + selfs[i]
        if rec[PARENT] >= 0:
            parent = spans[rec[PARENT]]
            consistent &= parent[START] <= rec[START] <= rec[END] <= parent[END]
    consistent &= abs(sum(by_layer.values()) - latency) <= 1e-9 * max(1.0, latency)
    probes = sum(1 for rec in spans
                 if rec[NAME] == "solver.admm_solve" and _has_ancestor(spans, rec,
                                                                     "extraction.find_c_for_k"))
    return {"latency": latency, "by_name": by_name, "by_layer": by_layer,
            "select_probes": probes, "consistent": bool(consistent)}


def _has_ancestor(spans, rec, name) -> bool:
    while rec[PARENT] >= 0:
        rec = spans[rec[PARENT]]
        if rec[NAME] == name:
            return True
    return False


def split_by_problem(spans: list[list]) -> dict:
    """Group spans by problem id, renumbering parents within each group."""
    groups: dict = {}
    local: dict[int, int] = {}
    for i, rec in enumerate(spans):
        group = groups.setdefault(rec[PROBLEM], [])
        local[i] = len(group)
        rec = list(rec)
        rec[PARENT] = local[rec[PARENT]] if rec[PARENT] >= 0 else -1
        group.append(rec)
    return groups

"""Outside-in span tracing of the lrterrain layers.

A traced run replaces the public functions of each layer by wrappers that
record one span per call (name, start, end, parent) plus a few work
counters read from arguments and results.  Spans stay in memory and are
written out when the run ends.

Names are bound by ``from .x import name`` in several modules, so every
lrterrain namespace that binds a wrapped function is patched.  The layer
modules are taken from ``sys.modules``: the package attributes
``lrterrain.evaluate`` and ``lrterrain.deconflict`` are functions, not the
submodules.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

# layer (module under lrterrain) -> wrapped public functions
WRAPPED = {
    "formats": ("read_survey", "binary_size", "write_surface_binary"),
    "evaluate": ("eval_cache", "evaluate", "distance_field", "basis_matrix"),
    "mesh": ("insert_segments", "residents_of", "restrict", "transpose"),
    "least_squares": ("fit_least_squares", "smoothing_matrix", "ghost_points",
                      "idw_prior"),
    "mba": ("mba_update",),
    "adaptive": ("fit", "refine_step"),
    "deconflict": ("deconflict", "pairwise_element_test"),
    "tiling": ("fit_tiles", "stitch_grid"),
}

# wrapped functions whose call count is reported
COUNTED_CALLS = (
    "formats.binary_size", "evaluate.eval_cache", "mesh.insert_segments",
    "mesh.transpose", "least_squares.fit_least_squares", "mba.mba_update",
    "adaptive.fit", "deconflict.pairwise_element_test",
)

# work counters: metric name -> (wrapped function, amount(result))
COUNTERS = {
    "formats.points_read": ("formats.read_survey", lambda r: len(r[0])),
    "evaluate.points_evaluated": ("evaluate.evaluate", len),
    "mba.coefficients_updated": ("mba.mba_update", lambda r: r["n_updated"]),
    "adaptive.iterations": ("adaptive.fit", lambda r: len(r[1]) - 1),
    "adaptive.segments_inserted": ("adaptive.refine_step", lambda r: r["inserted"]),
    "adaptive.splits_frozen": ("adaptive.refine_step", lambda r: r["frozen"]),
    "deconflict.points_removed": ("deconflict.deconflict",
                                  lambda r: sum(r[1]["removed"].values())),
}
EVAL_CACHE_BUILDS = "evaluate.eval_cache_builds"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, funcs in WRAPPED.items():
        for f in funcs:
            names += [f"{layer}.{f}_s", f"{layer}.{f}_self_s"]
    names += [f"{key}_calls" for key in COUNTED_CALLS]
    names += list(COUNTERS) + [EVAL_CACHE_BUILDS, "trace.fit_coverage"]
    return names


class Tracer:
    """In-memory span recorder.

    Benchmark phases are spans too (``phase``); library spans record the
    phase they ran in, so per-round figures can be separated from one-off
    loading and checking.
    """

    def __init__(self):
        # [name, start, end, parent index, phase, outermost of its name]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._phase = ""
        self._cache_entries = weakref.WeakValueDictionary()  # id -> entry
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._phase,
                           self._active[name] == 0])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[idx][0]] -= 1

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        idx = self._open("bench." + name)
        try:
            yield
        finally:
            self._close(idx)
            self._phase = ""

    def _count(self, key: str, amount) -> None:
        self.counts[(self._phase, key)] += amount

    def _wrap(self, key: str, fn):
        counters = [(m, amount) for m, (src, amount) in COUNTERS.items() if src == key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for metric, amount in counters:
                self._count(metric, amount(result))
            if key == "evaluate.eval_cache" and self._cache_entries.get(id(result)) is not result:
                self._cache_entries[id(result)] = result
                self._count(EVAL_CACHE_BUILDS, 1)
            return result

        return traced

    def install(self) -> None:
        import lrterrain  # noqa: F401  (loads every layer module)

        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "lrterrain" or n.startswith("lrterrain."))]
        for layer, funcs in WRAPPED.items():
            home = sys.modules[f"lrterrain.{layer}"]
            for name in funcs:
                orig = getattr(home, name)
                traced = self._wrap(f"{layer}.{name}", orig)
                for ns in namespaces:
                    if ns.__dict__.get(name) is orig:
                        setattr(ns, name, traced)
                        self._patched.append((ns, name, orig))

    def uninstall(self) -> None:
        for ns, name, orig in reversed(self._patched):
            setattr(ns, name, orig)
        self._patched.clear()

    def layer_metrics(self, repeated: tuple[str, ...], rounds: int) -> dict:
        """Per-layer figures: one-off phases once, repeated phases per round."""
        weight = {p: 1.0 / rounds for p in repeated}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: 0.0 for n in metric_names()}
        for i, (name, t0, t1, _, phase, outermost) in enumerate(self.spans):
            if name.startswith("bench."):
                continue
            w = weight.get(phase, 1.0)
            if outermost:
                out[name + "_s"] += w * (t1 - t0)
            out[name + "_self_s"] += w * (t1 - t0 - child[i])
            if name + "_calls" in out:
                out[name + "_calls"] += w
        for (phase, key), n in self.counts.items():
            out[key] += weight.get(phase, 1.0) * n
        out["trace.fit_coverage"] = self.fit_coverage()
        return out

    def fit_coverage(self) -> float:
        """Share of the fit phases covered by their top-level library spans."""
        fit_phases = {i for i, s in enumerate(self.spans) if s[0] == "bench.fit"}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in fit_phases)
        covered = sum(s[2] - s[1] for s in self.spans if s[3] in fit_phases)
        return covered / total if total > 0 else 0.0

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "phase")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s[:5])) for s in self.spans]}, fh)
            fh.write("\n")

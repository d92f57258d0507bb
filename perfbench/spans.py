"""Spans around calls into urglab's modules, recorded from outside the package.

``Tracer.install`` wraps each target function.  urglab modules import each
other by name (``from .clusters import decompose`` in ``cli`` and
``kazhdan``, ``from .balls import ball`` in ``transport``, ...), so every
module-level binding of the original object is replaced, not only the one in
the defining module.  ``PointConfiguration`` is wrapped at its ``__init__``
so the class itself, and ``isinstance`` on it, stay untouched.

A span is ``[name, start, end, parent, work]``; spans stay in memory until
``summary`` folds them into per-layer metrics.  ``work`` is read after the
span ends, from the call's arguments and result, so its cost lands in the
parent span's self time and in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

# (module, attribute, metrics reported, work counter: (args, result) -> int)
TARGETS = (
    ("graphs", "build_torus_window", ("calls", "total_s"), None),
    ("graphs", "build_random_regular", ("calls", "total_s"), None),
    ("colourings", "sample", ("calls", "total_s"), None),
    ("clusters", "decompose", ("calls", "total_s", "clusters"), lambda a, r: r.count),
    ("clusters", "connect_clusters", ("calls", "total_s", "pairs"), lambda a, r: len(r.pairs)),
    ("clusters", "cost_upper_bound", ("calls", "total_s"), None),
    ("kazhdan", "anneal_kazhdan", ("calls", "total_s", "self_s", "steps"),
     lambda a, r: a[0].budget * a[0].restarts),
    ("balls", "ball", ("calls", "total_s", "vertices"), lambda a, r: r.n),
    ("transport", "mtp_check", ("calls", "total_s", "self_s", "edges"),
     lambda a, r: sum(len(entries) for entries in a[0].adjacency)),
    ("torus", "PointConfiguration.__init__", ("calls", "total_s", "points"), lambda a, r: len(a[0])),
    ("torus", "bulk_nearest", ("calls", "total_s", "queries"), lambda a, r: len(a[1])),
    ("torus", "nearest_distance", ("calls", "total_s"), None),
    ("palm", "sample_poisson", ("calls", "total_s", "points"), lambda a, r: len(r)),
    ("palm", "palm_sample_poisson", ("calls", "total_s"), None),
    ("palm", "verify_voronoi_inversion", ("calls", "total_s", "self_s"), None),
    ("rng", "derive_rng", ("calls", "total_s"), None),
    ("rng", "derive_seed", ("calls", "total_s"), None),
    ("reporting", "write_json", ("calls", "total_s"), None),
    ("reporting", "sha256_of", ("calls", "total_s", "bytes"), lambda a, r: os.path.getsize(a[0])),
    ("cli", "run", ("total_s", "self_s"), None),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.removesuffix('.__init__')}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric ``summary`` reports, with its unit."""
    units = {
        f"{span_name(module, attribute)}.{stat}": "s" if stat.endswith("_s") else "count"
        for module, attribute, stats, _ in TARGETS
        for stat in stats
    }
    units["torus.queries_per_tree"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; urglab.cli (and so every module) must be imported."""
        modules = [m for n, m in sys.modules.items() if n == "urglab" or n.startswith("urglab.")]
        for module, attribute, _, work in TARGETS:
            name = span_name(module, attribute)
            owner = importlib.import_module(f"urglab.{module}")
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, getattr(cls, method), work))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        ``total_s`` counts only the outermost span of a name, so a nested call
        of the same function is not counted twice; ``self_s`` is a span's
        duration minus the durations of its direct children.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, work) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            s["calls"] += 1
            s["self_s"] += end - start - child_s[i]
            s["work"] += work
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                s["total_s"] += end - start
        metrics = {}
        for module, attribute, reported, _ in TARGETS:
            name = span_name(module, attribute)
            s = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            for stat in reported:
                metrics[f"{name}.{stat}"] = s[stat] if stat in s else s["work"]
        trees = metrics["torus.PointConfiguration.calls"]
        metrics["torus.queries_per_tree"] = metrics["torus.bulk_nearest.queries"] / trees if trees else 0.0
        return metrics

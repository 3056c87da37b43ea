"""Spans around pqss's public functions, recorded from outside the package.

`Tracer.installed()` replaces each target function with a wrapper in every
`pqss` module that holds a reference to it (modules call each other through
names they imported, so patching the defining module alone would miss
calls), and restores the originals on exit.  A span is (name, start, end,
parent); spans live in flat arrays in memory until `save`.  A layer's self
time is its span time minus the time of its direct child spans, less the
wrapper's own cost as `Tracer.calibrate()` measured it: pq_core.pq_integer
runs once per factor, so on high-degree rows the wrapper's cost would
otherwise outweigh the work of the layer that calls it.

Calls into catalog functions are counted by `Tracer.catalog_calls_counted()`
in a pass of their own: a Python counter around every callback costs more
than most callbacks, and inside traced passes it would be charged to
`operators.sample_at_nodes`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import statistics
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) under pqss, in layer order.
TARGETS = (
    ("pq_core", "pq_integer"),
    ("pq_core", "cumulative_log_factorials"),
    ("pq_core", "compensated_cumsum"),
    ("operators", "weight_vector"),
    ("operators", "nodes"),
    ("operators", "sample_at_nodes"),
    ("operators", "apply_on_grid"),
    ("moments", "verify_moments"),
    ("moments", "oracle_weight_vector"),
    ("moments", "moment_closed"),
    ("moments", "delta"),
    ("catalog", "build_catalog"),
    ("analysis", "total_modulus_bound_grid"),
    ("convergence", "convergence_table"),
    ("convergence", "korovkin_suite"),
    ("serialize", "csv_text"),
    ("serialize", "json_text"),
    ("cli", "build_parser"),
    ("cli", "main"),
)

# Counters derived at the layer boundaries, with their units.
EXTRA_METRICS = {
    "pq_core.cumulative_log_factorials.hit_ratio": "ratio",
    "operators.sample_at_nodes.f_calls": "count",
    "operators.apply_on_grid.flops": "flop",
    "catalog.fn.calls": "count",
    "serialize.csv_text.bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for mod, fn in TARGETS:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.self_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


@contextlib.contextmanager
def _patched(replacements: dict):
    """Replace each key by its value wherever a loaded pqss module holds it."""
    by_id = {id(old): (old, new) for old, new in replacements.items()}
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "pqss" or k.startswith("pqss."))]
    undo = []
    for m in modules:
        for attr, val in list(vars(m).items()):
            old, new = by_id.get(id(val), (None, None))
            if old is val:
                setattr(m, attr, new)
                undo.append((m, attr, val))
    try:
        yield
    finally:
        for m, attr, val in reversed(undo):
            setattr(m, attr, val)


def _degrees(op) -> tuple[int, int]:
    return op.axis1.degree + 1, op.axis2.degree + 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        # Wrapper time inside a span's own interval, and around each direct
        # child's interval in its parent's self time (seconds per span).
        self.own_overhead = 0.0
        self.parent_overhead = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, post=None):
        """`fn` inside a span; `post(args, result)` may count or replace the result."""
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            return result if post is None else post(args, result)

        traced.__wrapped__ = fn
        return traced

    def calibrate(self) -> None:
        """Measure the wrapper's cost on a function that does nothing.

        Per call, the plain loop takes P, the wrapped loop W and the child
        interval D.  The child's interval then holds D - P of wrapper work,
        and the caller holds the remaining W - D (the loop's own cost is in
        both loops and cancels).  Medians over CALIBRATION_ROUNDS rounds of
        CALIBRATION_CALLS calls.
        """
        def noop(*args):
            return None

        own, around = [], []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop(0)
            plain = time.perf_counter() - t0
            probe = Tracer()
            wrapped = probe.wrap("calibrate", noop)
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped(0)
            total = time.perf_counter() - t0
            inside = math.fsum(np.array(probe.end) - np.array(probe.start))
            own.append((inside - plain) / CALIBRATION_CALLS)
            around.append((total - inside) / CALIBRATION_CALLS)
        self.own_overhead = max(0.0, statistics.median(own))
        self.parent_overhead = max(0.0, statistics.median(around))

    def _post_hooks(self) -> dict:
        counters = self.counters

        def sample(args, result):
            m1, m2 = _degrees(args[0])
            counters["operators.sample_at_nodes.f_calls"] += m1 * m2
            return result

        def contraction(args, result):
            (m1, m2), g1, g2 = _degrees(args[0]), len(args[2]), len(args[3])
            counters["operators.apply_on_grid.flops"] += 2 * g1 * m1 * m2 + 2 * g1 * m2 * g2
            return result

        def csv_bytes(args, text):
            counters["serialize.csv_text.bytes"] += len(text.encode("utf-8"))
            return text

        return {
            "operators.sample_at_nodes": sample,
            "operators.apply_on_grid": contraction,
            "serialize.csv_text": csv_bytes,
        }

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in every loaded pqss module; restore on exit."""
        hooks = self._post_hooks()
        lf = sys.modules["pqss.pq_core"].cumulative_log_factorials
        before = lf.cache_info()
        wrappers = {}
        for mod, fn in TARGETS:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"pqss.{mod}"], fn)
            wrappers[original] = self.wrap(name, original, hooks.get(name))
        try:
            with _patched(wrappers):
                yield self
        finally:
            after = lf.cache_info()
            self.counters["lf.hits"] += after.hits - before.hits
            self.counters["lf.misses"] += after.misses - before.misses

    @contextlib.contextmanager
    def catalog_calls_counted(self):
        """Count every call into a catalog function, without spans."""
        counters = self.counters
        original = sys.modules["pqss.catalog"].build_catalog

        def count_fn(fn):
            def counted(*args):
                counters["catalog.fn.calls"] += 1
                return fn(*args)
            return counted

        def build_catalog(*args, **kwargs):
            return {k: dataclasses.replace(tf, fn=count_fn(tf.fn))
                    for k, tf in original(*args, **kwargs).items()}

        with _patched({original: build_catalog}):
            yield self

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self time of every target, plus the counters of
        the traced passes (catalog.fn.calls comes from its own pass)."""
        n = len(self.start)
        name_id, parent = np.array(self.name_id, dtype=int), np.array(self.parent, dtype=int)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        children = np.bincount(parent[has_parent], minlength=n)
        self_time = dur - child - children * self.parent_overhead - self.own_overhead
        self_time = np.maximum(self_time, 0.0)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_time, minlength=k)
        out = {}
        for mod, fn in TARGETS:
            name = f"{mod}.{fn}"
            i = self._ids[name]
            out[f"{name}.calls"] = float(calls[i]) / passes
            out[f"{name}.self_ms"] = 1e3 * float(self_s[i]) / passes
        for key in ("operators.sample_at_nodes.f_calls", "operators.apply_on_grid.flops",
                    "serialize.csv_text.bytes"):
            out[key] = self.counters[key] / passes
        lookups = self.counters["lf.hits"] + self.counters["lf.misses"]
        out["pq_core.cumulative_log_factorials.hit_ratio"] = (
            self.counters["lf.hits"] / lookups if lookups else 0.0
        )
        out["trace.spans"] = n / passes
        return out

    def save(self, path) -> None:
        """Write the spans: name table, then name index, parent, start, end per span."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )

"""Layer spans recorded from outside the package.

The tracer wraps each layer's public functions at their module attributes,
and in every namespace that re-bound them with `from ... import` (the
package `__init__`, `claims`, `cli`, `treemodel`), so nothing under `src/`
changes.  Calls between modules and internal module-global calls (for
example `is_cycle_extendible` -> `build_cyclable_table`) go through the
wrappers, which separates table time from scan time.

A span is [name, layer, start, end, parent index, job id, paused], where
paused is the time the benchmark's host-speed sampler interrupted it.  Spans
stay in memory; self time is a span's duration minus the durations of its
direct children and its own paused time.  Spans nest because the benchmark
runs on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("families", "graph6", "chordal", "cycles.table", "cycles.scan",
          "cycles.search", "structure.connectivity", "structure.induced_path",
          "treemodel", "claims", "cli")

# Every public function of these modules belongs to the module's layer ...
MODULE_LAYER = {
    "hendry.families": "families",
    "hendry.graph6": "graph6",
    "hendry.chordal": "chordal",
    "hendry.cycles": "cycles.scan",
    "hendry.structure": "structure.induced_path",
    "hendry.treemodel": "treemodel",
    "hendry.claims": "claims",
    "hendry.cli": "cli",
}
# ... except the engines split out of `cycles` and `structure`.
FUNCTION_LAYER = {
    ("hendry.cycles", "build_cyclable_table"): "cycles.table",
    ("hendry.cycles", "find_spanning_cycle"): "cycles.search",
    ("hendry.cycles", "is_cyclable"): "cycles.search",
    ("hendry.cycles", "hamiltonian_cycle"): "cycles.search",
    ("hendry.cycles", "heavy_cycles_on"): "cycles.search",
    ("hendry.structure", "vertex_connectivity"): "structure.connectivity",
}
# Helpers called once per subset, vertex or JSON node: a wrapper would cost
# more than they do, so their time stays with their caller.  Generator
# functions are not wrapped either; their work runs in the consumer.
UNWRAPPED = {
    ("hendry.cycles", "could_be_s_extendible"),
    ("hendry.cycles", "vertex_on_triangle"),
    ("hendry.cycles", "subset_cap"),
    ("hendry.cli", "jsonable"),
}

SEARCH_FUNCTIONS = ("find_spanning_cycle", "is_cyclable", "hamiltonian_cycle",
                    "heavy_cycles_on")


def table_bytes(table) -> int:
    """Bytes held in buffer objects (array, ndarray, bytes) on the table,
    measured from the object rather than assumed from a word width."""
    total = 0
    for value in vars(table).values():
        try:
            total += memoryview(value).nbytes
        except TypeError:
            pass
    return total


def _search_found(name, result) -> bool:
    if name == "is_cyclable":
        return bool(result)
    if name == "heavy_cycles_on":
        return result[0] > 0
    return result is not None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"cycles.table.entries": 0, "cycles.table.bytes": 0,
                       "cycles.search.found": 0, "cycles.search.empty": 0,
                       "graph6.bytes": 0}
        self.job = None
        self._stack: list[int] = []

    # -- installing -------------------------------------------------------------

    @staticmethod
    def targets():
        """(module name, function name, layer, function) for every wrapped function."""
        out = []
        for modname, default in MODULE_LAYER.items():
            module = sys.modules[modname]
            for name, fn in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname or (modname, name) in UNWRAPPED
                        or inspect.isgeneratorfunction(fn)):
                    continue
                out.append((modname, name, FUNCTION_LAYER.get((modname, name), default), fn))
        return out

    @contextmanager
    def installed(self):
        """Wrap every target in every hendry namespace that holds it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "hendry" or n.startswith("hendry.")]
        wrappers = {id(fn): self._wrap(layer, f"{mod[len('hendry.'):]}.{name}", fn)
                    for mod, name, layer, fn in self.targets()}
        replaced = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(ns, attr, wrapper)
                    replaced.append((ns, attr, value))
        try:
            yield
        finally:
            for ns, attr, value in replaced:
                setattr(ns, attr, value)

    def _wrap(self, layer, qualname, fn):
        short = fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [qualname, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            tracer._count(short, args, result)
            return result
        return traced

    def _count(self, name, args, result):
        c = self.counts
        if name == "build_cyclable_table":
            c["cycles.table.entries"] += 1 << result.n
            c["cycles.table.bytes"] += table_bytes(result)
        elif name in SEARCH_FUNCTIONS:
            c["cycles.search.found" if _search_found(name, result)
              else "cycles.search.empty"] += 1
        elif name == "encode_graph6":
            c["graph6.bytes"] += len(result)
        elif name == "decode_graph6":
            c["graph6.bytes"] += len(args[0])

    def pause(self, spent: float):
        """Charge time the job was interrupted to the innermost open span."""
        if self._stack:
            self.spans[self._stack[-1]][6] += spent

    # -- reading ------------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self time (s) and call count over all spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for s, c in zip(self.spans, child):
            agg = out[s[1]]
            agg["self_s"] += (s[3] - s[2]) - c - s[6]
            agg["calls"] += 1
        return out

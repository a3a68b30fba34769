"""In-process layer tracing, installed from outside the program.

Every public function of the traced layer modules is wrapped in a span
recorder, and the wrapper replaces the function everywhere it was imported
by name (``count_tuples`` in ``census``, ``calibration`` and ``cli``, for
example), so calls between modules are seen too. Private helpers are left
alone; their time lands in the self time of the public function that calls
them.

Spans live in preallocated arrays, so recording one allocates nothing that
tracemalloc would charge to the layer being measured. Each span keeps its
parent, its trace (one per benchmark operation), its duration, the
tracemalloc peak above its starting level (0 unless tracemalloc is
tracing), and one work count taken at the boundary (entries built, bytes
written, entries scanned, rebuilds).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

LAYERS = ("cli", "sieve", "census", "selberg", "patterns", "calibration")
ROOT = "bench"
CAPACITY = 1 << 20


def _scanned(query) -> int:
    """Table entries one census reads: one per tuple position per n scanned."""
    n = (query.x + 1) // 2 if query.parity == "odd" else query.x
    return n * len(query.pattern.offsets)


# Work counted at a boundary, from the bound arguments and the result.
WORK = {
    "sieve.build_omega_table": lambda a, r: a["limit"] + 1,
    "sieve.save_table": lambda a, r: Path(a["path"]).stat().st_size,
    "sieve.load_table": lambda a, r: Path(a["path"]).stat().st_size,
    "census.count_tuples": lambda a, r: _scanned(a["query"]),
    "cli.ensure_table": lambda a, r: int(bool(r[2])),
}


class Tracer:
    """Span recorder with per-span tracemalloc peaks."""

    def __init__(self, capacity: int = CAPACITY):
        self.names: list[str] = [ROOT]
        self.parent = np.full(capacity, -1, dtype=np.int64)
        self.trace = np.zeros(capacity, dtype=np.int64)
        self.name = np.zeros(capacity, dtype=np.int32)
        self.start = np.zeros(capacity)
        self.end = np.zeros(capacity)
        self.peak = np.zeros(capacity)  # bytes above the level at span start
        self.work = np.zeros(capacity)
        self.count = 0
        self.traces = 0
        self.paused = False
        # open spans: [index, memory at start, running peak]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _begin(self, name_id: int, trace: int | None = None) -> list:
        i = self.count
        if i == len(self.start):
            raise RuntimeError(f"more than {i} spans; raise CAPACITY")
        self.count += 1
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            outer = self._stack[-1]
            outer[2] = max(outer[2], peak)
            self.parent[i] = outer[0]
            self.trace[i] = self.trace[outer[0]]
        else:
            self.trace[i] = trace
        tracemalloc.reset_peak()
        self.name[i] = name_id
        frame = [i, current, current]
        self._stack.append(frame)
        self.start[i] = time.perf_counter()
        return frame

    def _end(self, frame: list, work: float = 0.0) -> None:
        i = frame[0]
        self.end[i] = time.perf_counter()
        self._stack.pop()
        top = max(frame[2], tracemalloc.get_traced_memory()[1])
        self.peak[i] = top - frame[1]
        self.work[i] = work
        if self._stack:
            outer = self._stack[-1]
            outer[2] = max(outer[2], top)
        tracemalloc.reset_peak()

    def root(self):
        """Context manager for one benchmark operation: a new trace."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.traces += 1
                self.frame = tracer._begin(0, tracer.traces)
                return tracer.traces

            def __exit__(self, *exc):
                tracer._end(self.frame)

        return _Root()

    def wrap(self, qualname: str, fn):
        self.names.append(qualname)
        name_id = len(self.names) - 1
        measure = WORK.get(qualname)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused or not self._stack:
                return fn(*args, **kwargs)
            frame = self._begin(name_id)
            work = 0.0
            try:
                result = fn(*args, **kwargs)
                if measure:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = measure(bound.arguments, result)
                return result
            finally:
                self._end(frame, work)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of LAYERS wherever it is bound by name."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"aptuple.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "aptuple" and not modname.startswith("aptuple."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self._patched:
            setattr(module, attr, obj)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_of(self, name_id: int) -> str:
        return self.names[name_id].split(".")[0]

    def self_times(self) -> np.ndarray:
        n = self.count
        dur = self.end[:n] - self.start[:n]
        child = np.zeros(n)
        has_parent = self.parent[:n] >= 0
        np.add.at(child, self.parent[:n][has_parent], dur[has_parent])
        return dur - child

    def spans_of(self, qualname: str) -> np.ndarray:
        if qualname not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name[: self.count] == self.names.index(qualname))

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i in range(self.count):
                fh.write(json.dumps({
                    "id": i,
                    "parent": int(self.parent[i]),
                    "trace": int(self.trace[i]),
                    "name": self.names[self.name[i]],
                    "start": float(self.start[i]),
                    "end": float(self.end[i]),
                    "peak_bytes": float(self.peak[i]),
                    "work": float(self.work[i]),
                }) + "\n")

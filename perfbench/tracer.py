"""Span tracing of the augrkhs layers, from outside the package.

``install`` wraps every public function of the layer modules wherever a
module of the package binds it (``harness`` binds ``build_hypercube`` by
name, ``complexity`` and ``encoders`` bind ``decompose``, ``objectives``
binds ``pair_distribution``), so nested calls are seen too.  Each call
records a span ``[name, start, end, parent, cell, counts]``; spans stay in
memory until ``dump``.  ``restore`` puts every original binding back.

Run as a script it traces one CLI invocation:

    python3 perfbench/tracer.py --spans FILE -- <augrkhs cli arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("processes", "spectral", "complexity", "encoders", "objectives",
          "regression", "harness", "cli")


def _decompose_counts(args, kwargs, result):
    process = args[0] if args else kwargs["process"]
    return {"table_bytes": process.n_a * process.n_x * 8}


def _minimize_counts(args, kwargs, result):
    process = args[1] if len(args) > 1 else kwargs["process"]
    return {"iterations": result.iterations,
            "pair_bytes": process.n_a * process.n_a * 8}


def _empirical_counts(args, kwargs, result):
    import numpy as np
    n = result.sample_indices.size
    return {"rows": n,
            "distinct_rows": int(np.unique(result.sample_indices).size),
            "rows_bytes": n * result.process.n_a * 8}


def _export_counts(args, kwargs, result):
    return {"written_bytes": sum(os.path.getsize(p) for p in result.values())}


# counts computed from shapes, sizes and results, never from timings
COUNTS = {
    "spectral.decompose": _decompose_counts,
    "objectives.minimize": _minimize_counts,
    "encoders.empirical_decomposition": _empirical_counts,
    "spectral.export_decomposition": _export_counts,
}
# counts that describe the largest array of a kind rather than a total
LARGEST = {"table_bytes", "pair_bytes", "rows_bytes"}


class Tracer:
    """In-memory span recorder for one traced sweep (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []
        self.parent = None
        self.cell = None
        self.cells = 0
        self.functions: list[str] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.parent, self.cell, None]
            self.parent = len(self.spans)
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.parent = span[3]
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced

    def _mark_cell(self, fn):
        @functools.wraps(fn)
        def cell(*args, **kwargs):
            self.cell = self.cells
            self.cells += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.cell = None

        return cell

    def install(self, package: str = "augrkhs") -> None:
        """Wrap the public functions of every layer at every binding."""
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj)
                    self.functions.append(name)
        bound = [m for n, m in sys.modules.items()
                 if m is not None and (n == package or n.startswith(package + "."))]
        for module in bound:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(module.__dict__, attr, wrappers[obj])
        # the per-cell functions of the harness mark which cell a span is in
        harness = modules["harness"]
        for key, fn in list(harness._CELL_FN.items()):
            marked = self._mark_cell(fn)
            self._rebind(harness._CELL_FN, key, marked)
            self._rebind(harness.__dict__, fn.__name__, marked)

    def _rebind(self, namespace: dict, key, value) -> None:
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = value

    def restore(self) -> None:
        """Put back every binding ``install`` replaced, last first."""
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": self.functions,
                                 "cells": self.cells}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> tuple[dict, list[list]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]


def summarize(spans: list[list]) -> dict:
    """Per-function calls, busy and self time, per-layer self time, counts.

    Self time is a span's duration minus the durations of its direct
    children.  ``wall_s`` is the total duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    wall = 0.0
    functions: dict = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    counts: dict = {}
    for i, (name, start, end, parent, _cell, info) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        fn = functions.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                         "self_s": 0.0})
        fn["calls"] += 1
        fn["busy_s"] += dur
        fn["self_s"] += own
        layers[name.split(".")[0]] += own
        if parent is None:
            wall += dur
        per_fn = counts.setdefault(name, {})
        for key, value in (info or {}).items():
            if key in LARGEST:
                per_fn[key] = max(per_fn.get(key, 0), value)
            else:
                per_fn[key] = per_fn.get(key, 0) + value
    return {"wall_s": wall, "functions": functions, "layers": layers,
            "counts": counts}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans FILE -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        import augrkhs.cli
        code = augrkhs.cli.main(argv[3:])
    finally:
        tracer.restore()
        tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main())

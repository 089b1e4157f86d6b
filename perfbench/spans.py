"""Per-module attribution for the traced run, recorded from outside the library.

``Tracer`` wraps every public function in every ``hotelling`` module
namespace that binds it (``masses`` is bound in ``payoff``, ``mixed`` and
``equilibrium``; all three bindings get the same wrapper). Each call records
a span: name, start, end, parent span and op id. Spans stay in memory until
the run ends. A span's self time is its duration minus its child spans.

Private helpers are not wrapped, so their time is the self time of the
public function that called them (the oracle's per-draw kernel shows up in
``oracle.best_response``).

``fractions_share`` reads a separate ``cProfile`` pass over the op calls: the
share of profiled self time spent in functions of the stdlib ``fractions``.
"""

from __future__ import annotations

import cProfile
import fractions
import functools
import gzip
import importlib
import json
import pkgutil
import pstats
import time
import types
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or None, op id)
        self.spans: list[tuple | None] = []
        self.op_id: int | None = None
        self._open: list[int] = []
        self._restore: list[tuple[types.ModuleType, str, Callable]] = []

    def install(self, package: types.ModuleType) -> None:
        """Wrap the public functions of the package and all its modules."""
        prefix = package.__name__ + "."
        modules = [package] + [
            importlib.import_module(prefix + info.name) for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers: dict[Callable, Callable] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__[len(prefix):]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, name, wrappers[obj])
                self._restore.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:  # outside an op, e.g. in a check
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.op_id)
                open_spans.pop()

        return traced

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per function name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), nested in zip(self.spans, child):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - nested)
        return calls, self_s

    def write(self, path: Path) -> None:
        """One JSON array per line: [id, name, start, end, parent, op]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span]) + "\n")


def fractions_share(profiler: cProfile.Profile) -> float:
    """Share of the profiler's self time spent in functions of ``fractions.py``."""
    stats = pstats.Stats(profiler).stats  # (file, line, func) -> (cc, nc, tottime, ...)
    total = sum(entry[2] for entry in stats.values())
    inside = sum(entry[2] for (file, _, _), entry in stats.items() if file == fractions.__file__)
    return inside / total if total else 0.0

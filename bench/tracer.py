"""Spans around the public functions of each pstlab layer.

The package imports by name (`from .eigensolve import eigenvalues_only`), so
one function has several bindings: `pstlab.pst.eigenvalues_only` is the one
certification calls, `pstlab.cli.eigenvalues_only` the one `analyze` calls.
`install` replaces every binding of each traced function in every loaded
pstlab module by one wrapper, and `remove` puts the originals back.  Nothing
under src/ changes.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span (-1 at the top), `op` the index of the benchmark op it
belongs to.  Spans are kept in memory and written out at the end.  The
library runs serially here (PSTLAB_THREADS is unset), so spans nest like
the call stack and a span's children never overlap: self time is its
duration minus the sum of its children's durations.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

TRACED = (
    "chain.is_mirror_symmetric",
    "synthesis.synthesize",
    "eigensolve.eigenvalues_only",
    "eigensolve.decompose",
    "eigensolve.classify_parity",
    "pst.certify",
    "pst.evolve_fidelity",
    "pst.first_perfect_time",
    "bounds.audit_chain",
    "bounds.falsify_search",
    "cli.main",
)
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(index)
        return index

    def _leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self):
        """The span of one benchmark op; spans opened inside belong to it."""
        self._op = len(self.spans)
        index = self._enter(OP)
        try:
            yield
        finally:
            self._leave(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(index)
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "pstlab" or key.startswith("pstlab."))]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"pstlab.{module}"], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def remove(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def layer_metrics(self) -> dict:
        """Per op: self time (ms) of every traced function, calls of the
        ones whose count an optimization should move, and eigensolves."""
        ops = sum(1 for s in self.spans if s[0] == OP)
        self_time = {name: 0.0 for name in TRACED}
        calls = {name: 0 for name in TRACED}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name != OP:
                self_time[name] += end - start - child_time[index]
                calls[name] += 1
        metrics = {f"{name}.self_ms_per_op": (1e3 * self_time[name] / ops, "ms")
                   for name in TRACED}
        for name in ("synthesis.synthesize", "eigensolve.eigenvalues_only",
                     "eigensolve.decompose"):
            metrics[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
        metrics["eigensolves_per_op"] = (
            (calls["eigensolve.eigenvalues_only"] + calls["eigensolve.decompose"]) / ops,
            "count",
        )
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)

"""Span tracing around the public functions of each anthyphairesis module.

Every function named in a module's __all__ is wrapped, and the wrapper is
bound at every module global that held the original (engine.expand_sqrt
and cli.expand_sqrt alike), so calls between modules and inside one module
are all seen. Totals are kept per function; self time is a span's duration
minus the durations of the spans it caused. The first spans are also kept
whole in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter_ns

MODULES = ("surd", "engine", "bookx", "palindrome", "convergents", "oracle", "cli")

# Per-call work counts, for metrics given per unit of work.
UNITS = {"engine.expand_sqrt": lambda e: len(e.preperiod) + len(e.period)}


class Tracer:
    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns, units]
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self._op = -1

    def install(self, package: str = "anthyphairesis") -> None:
        modules = [sys.modules[package]] + [sys.modules[f"{package}.{m}"] for m in MODULES]
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{name}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)

    def start_op(self, index: int) -> None:
        self._op = index

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        units = UNITS.get(name)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < self.span_cap:
                    spans.append((span_id, parent, self._op, name, start, end))
                else:
                    self.dropped += 1
            if units is not None:
                stats[3] += units(result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")

"""Per-pass recorder: stage timers, layer spans, counts and check results.

Stage timers always run; they are the end-to-end numbers of a pass. Layer
spans are recorded only in a traced pass, around each call the benchmark
makes into a module of the package, and reduced to self time per layer.
Time spent in the correctness gate is the benchmark's own work: it is
counted in ``gate_s`` and left out of the pass and stage times.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

STAGES = ("solve_s", "reference_s", "sample_s", "simulate_s")


class Recorder:
    """Everything one pass measures.

    A span is ``(name, start, end, parent, op_id)``: ``parent`` indexes
    ``spans`` (-1 for the pass itself) and ``op_id`` is the operation the
    span belongs to (-1 outside operations).
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.stages = dict.fromkeys(STAGES, 0.0)
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.attempted = 0
        self.failures: list[tuple[int, str]] = []
        self.op_id = -1
        self._stack: list[int] = []
        self.pass_s = 0.0
        self.gate_s = 0.0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        name, start, _, parent, op = self.spans[i]
        self.spans[i] = (name, start, time.perf_counter(), parent, op)
        self._stack.pop()

    @contextmanager
    def run_pass(self):
        """Time the whole pass but its gates; in a traced pass it is the root span."""
        t0 = time.perf_counter()
        root = self._open("pass") if self.traced else None
        try:
            yield self
        finally:
            if root is not None:
                self._close(root)
            self.pass_s = time.perf_counter() - t0 - self.gate_s

    @contextmanager
    def op(self, stage: str):
        """One checked operation, charged to ``stage`` but for its gates."""
        self.attempted += 1
        self.op_id = self.attempted - 1
        t0, gate0 = time.perf_counter(), self.gate_s
        span = self._open(f"op.{stage}") if self.traced else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)
            self.stages[stage] += time.perf_counter() - t0 - (self.gate_s - gate0)

    @contextmanager
    def gate(self):
        """Checks of the current operation's answers, timed apart from it."""
        t0 = time.perf_counter()
        span = self._open("gate") if self.traced else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)
            self.gate_s += time.perf_counter() - t0

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn``; in a traced pass, record it as a span of ``layer``."""
        if not self.traced:
            return fn(*args, **kwargs)
        span = self._open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def check(self, ok: bool, what: str) -> None:
        """Record a failed check against the current operation."""
        if not ok:
            self.failures.append((self.op_id, what))

    @property
    def failed(self) -> int:
        """Operations with at least one failed check or an exception."""
        return len({op for op, _ in self.failures})

    def count(self, name: str, value: int) -> None:
        self.counts[name] = int(value)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

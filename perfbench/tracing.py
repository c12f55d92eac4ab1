"""Opt-in per-layer tracing for the benchmark, from outside the package.

The tracer replaces the names one wihmplan module imports from another (for
example ``wihmplan.planner.successors``) with timing wrappers, and puts the
originals back when it exits.  Nothing under ``src/`` knows about it.  Hot
calls are aggregated per metric name (calls, total time, self time) rather
than stored one span each; the aggregate is written when the run ends.

A wrap target that no longer exists (a later refactor moved or deleted it)
is skipped and its metric is listed in ``Tracer.absent``; the run goes on.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0  # time inside wrapped calls of other metrics

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Wraps module attributes with timers; use as a context manager."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # one [child seconds] cell per open call
        self._depth: dict[str, list[int]] = {}  # open calls per metric; it may nest in itself
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, name: str, targets: list[tuple[str, str]], before=None, after=None) -> None:
        """Time every call made through any of ``targets`` under metric ``name``.

        ``before(args, kwargs)`` runs ahead of the call and
        ``after(args, kwargs, result, seconds)`` after it returns.
        """
        found = False
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(name, original, before, after))
            self._patched.append((module, attr, original))
            found = True
        if not found:
            self.absent.append(name)

    def _wrap(self, name: str, fn, before, after):
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        depth = self._depth.setdefault(name, [0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            cell = [0.0]
            stack.append(cell)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[0] -= 1
                stats.calls += 1
                if depth[0] == 0:
                    stats.total_s += dt
                    stats.child_s += cell[0]
                    if stack:
                        stack[-1][0] += dt
                elif stack:
                    # Nested in a call of the same metric: that call's span
                    # already covers dt, so pass only the children upward.
                    stack[-1][0] += cell[0]
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one call of ``name``."""
        stats = self.stats.setdefault(name, CallStats())
        cell = [0.0]
        self._stack.append(cell)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            stats.calls += 1
            stats.total_s += dt
            stats.child_s += cell[0]
            if self._stack:
                self._stack[-1][0] += dt

    def get(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

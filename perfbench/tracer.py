"""Span recording for the traced run, done entirely from benchmark code.

The program under test is not edited. Instead :class:`Tracer` replaces a
layer's public entry point at the name its callers bind (a class
attribute, or a module global imported by name) with a wrapper that
records one span per call. Spans are ``(id, parent, name, start, end)``
tuples kept in memory and written once, when the run ends. The parent is
the span open in the caller's context; a ``ContextVar`` carries it, so
concurrent asyncio tasks each keep their own span stack.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Span = Tuple[int, int, str, float, float]


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self, name: str, fn: Callable,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """A sync wrapper that records one span per call of ``fn``."""
        spans, ids, current = self.spans, self._ids, self._current
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`wrap` for a coroutine function (span ends on await)."""
        spans, ids, current = self.spans, self._ids, self._current
        clock = time.perf_counter

        async def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: one span per ``next()`` it serves."""
        wrap = self.wrap

        def traced(*args, **kwargs):
            step = wrap(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    yield step()
                except StopIteration:
                    return

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its direct children
        cover. Children of one span run in the caller's task one after
        another, so their durations add without overlap.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = {}
        for sid, _parent, name, start, end in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - child_time.get(sid, 0.0)
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    def write(self, path: str) -> None:
        """Write every span as one JSON line (the only write of the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"run": self.run_id, "id": sid, "parent": parent,
                     "name": name, "start": start, "end": end}
                ))
                handle.write("\n")


def rebind_everywhere(original: Callable, replacement: Callable) -> int:
    """Point every ``repro.*`` module global bound to ``original`` at
    ``replacement`` (callers that did ``from module import name``)."""
    rebound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound

"""Spans recorded around calls into the package's public functions.

A span holds its name, start, end, parent and the id of the workload run it
belongs to, plus a few attributes taken from the call's arguments or result
(array sizes, error estimates).  Spans stay in memory until the benchmark
writes them out.  Nothing inside the package is changed: ``Patch`` swaps
module attributes for timing wrappers and puts the originals back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Spans of one workload run; a span's parent is an index into ``spans``."""

    def __init__(self, run_id: str):
        self.spans: list[Span] = []
        self.run_id = run_id
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.run_id, dict(attrs)))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def enclosing_attr(self, key: str):
        """``key`` of the innermost open span that has it, else None."""
        for index in reversed(self._stack):
            if key in self.spans[index].attrs:
                return self.spans[index].attrs[key]
        return None

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` timed as span ``name`` (a string or a function of the args).

        ``before(args, kwargs)`` and ``after(result, args, kwargs)`` return
        extra span attributes.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = self.begin(label, **(before(args, kwargs) if before else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                # an exception still closes the span, without result attributes
                self.end(index)
            if after:
                self.spans[index].attrs.update(after(result, args, kwargs))
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c].start):
            lo = max(spans[child].start, cursor)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


class Patch:
    """Swap module attributes for replacements; ``restore`` undoes it."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

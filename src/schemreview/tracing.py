"""Span collection and trace emission.

A run's spans are its one record: the report's usage and cache counts
are sums over them. Every span is opened with ``TraceContext.span``,
and a span that an exception leaves records the exception's class name
as its ``error``; no other code names a failure.
A span's position in the tree is its slash-separated ``path``; the parent
is the path minus its last segment. ``Tracer.events`` sorts spans by
path so two runs over the same inputs produce the same record sequence
regardless of thread scheduling (wall-clock fields still differ).
``UNTRACED`` is the context of a call made outside any run: its spans
are discarded.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from .errors import StoreIo
from .fileio import write_text
from .records import checked


class TraceEvent(checked("TraceEvent", "span_name path start duration attributes")):
    """One finished span: its name, path, start, duration and attributes."""

    __slots__ = ()

    def __new__(cls, span_name: str, path: str, start: float, duration: float,
                attributes: dict):
        if duration < 0:
            raise ValueError("span duration must be nonnegative")
        return tuple.__new__(cls, (span_name, path, start, duration, attributes))


class Tracer:
    """Thread-safe span collector."""

    def __init__(self):
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()

    def record(self, span_name: str, path: str, start: float, duration: float,
               attributes: dict | None = None) -> None:
        event = TraceEvent(span_name, path, start, duration, dict(attributes or {}))
        with self._lock:
            self._events.append(event)

    def events(self) -> list[TraceEvent]:
        with self._lock:
            return sorted(self._events, key=lambda e: (e.path, e.span_name))


class TraceContext(checked("TraceContext", "tracer path attrs")):
    """A tracer plus the path and attributes inherited by child spans."""

    __slots__ = ()

    def __new__(cls, tracer: Tracer, path: str = "run", attrs: dict | None = None):
        return tuple.__new__(cls, (tracer, path, {} if attrs is None else attrs))

    def child(self, segment: str, **attrs) -> "TraceContext":
        """The context one ``segment`` below this one (below the empty path, at ``segment``)."""
        path = f"{self.path}/{segment}" if self.path else segment
        return TraceContext(self.tracer, path, {**self.attrs, **attrs})

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block as span ``name``; yields the child context that
        spans opened inside the block record under. Attributes the block
        sets on the child's ``attrs`` are recorded with the span, which is
        recorded even when the block raises; then its ``error`` is the
        name of the exception's class."""
        child = self.child(name, **attrs)
        start = time.time()
        t0 = time.perf_counter()
        try:
            yield child
        except BaseException as exc:
            child.attrs["error"] = type(exc).__name__
            raise
        finally:
            self.tracer.record(name, child.path, start,
                               time.perf_counter() - t0, child.attrs)


class _DiscardingTracer(Tracer):
    def record(self, span_name: str, path: str, start: float, duration: float,
               attributes: dict | None = None) -> None:
        pass


UNTRACED = TraceContext(_DiscardingTracer())


def emit_traces(events: list[TraceEvent], path) -> None:
    """Write newline-delimited span records (one JSON object per span), in
    the order given (``Tracer.events`` order)."""
    text = "".join(json.dumps({
        "span": e.span_name,
        "path": e.path,
        "start": e.start,
        "duration": e.duration,
        "attributes": dict(sorted(e.attributes.items())),
    }) + "\n" for e in events)
    try:
        write_text(path, text)
    except OSError as exc:
        raise StoreIo(f"cannot write trace file {path}: {exc}") from exc

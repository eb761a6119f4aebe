"""Hierarchical query tracing with a Chrome ``trace_event`` exporter.

A :class:`Tracer` hands out spans through a context manager::

    with tracer.span("scan", pattern="e1") as span:
        ...
        span.set(path=info.name, fetched=fetched)

``tools/check_invariants.py`` enforces that every ``.span(...)`` call
*is* a ``with`` context expression, so spans close on all exception
paths by construction.  Span stacks are thread-local — each thread's
spans nest independently — and every finished span records a stable
small ``tid`` so Chrome's viewer lays the threads out as tracks.

:data:`NULL_TRACER` is the disabled implementation: ``span()`` returns
a shared no-op whose ``set()`` does nothing, so instrumented code pays
one method call per span (not per row) when tracing is off.
"""

from __future__ import annotations

import json
import threading
from typing import Iterable

from repro.obs.clock import monotonic

__all__ = ["Span", "Tracer", "NULL_TRACER", "chrome_trace"]


class Span:
    """One timed operation; re-entrant ``with`` target via the tracer."""

    __slots__ = ("name", "start", "end", "depth", "tid", "attrs", "_tracer")

    def __init__(self, name: str, tracer: "Tracer", depth: int, tid: int,
                 attrs: dict) -> None:
        self.name = name
        self.start = monotonic()
        self.end: float | None = None
        self.depth = depth
        self.tid = tid
        self.attrs = attrs
        self._tracer = tracer

    def set(self, **attrs: object) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    @property
    def elapsed(self) -> float:
        end = self.end if self.end is not None else monotonic()
        return end - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = monotonic()
        self._tracer._finish(self)


class Tracer:
    """Collects one query's spans; create a fresh one per traced query."""

    def __init__(self) -> None:
        self.origin = monotonic()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[Span] = []
        self._tids: dict[int, int] = {}

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span.  Must be used as ``with tracer.span(...) as s:``."""
        stack = self._stack()
        span = Span(name, self, depth=len(stack), tid=self._tid(), attrs=attrs)
        stack.append(span)
        return span

    def spans(self) -> list[Span]:
        """Finished spans in completion order (inner before outer)."""
        with self._lock:
            return list(self._finished)

    def chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON-ready dict."""
        return chrome_trace(self.spans(), origin=self.origin)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.chrome(), indent=indent)

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids)
            return tid

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested close
            stack.remove(span)
        with self._lock:
            self._finished.append(span)


class _NullSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class _NullTracer(Tracer):
    """Tracing disabled: ``span()`` is one call returning a shared no-op."""

    def __init__(self) -> None:
        self._null = _NullSpan()

    def span(self, name: str, **attrs: object) -> "Span":
        return self._null  # type: ignore[return-value]

    def spans(self) -> list[Span]:
        return []

    def chrome(self) -> dict:
        return chrome_trace(())


#: The shared disabled tracer; ``options.tracer or NULL_TRACER`` is the
#: idiom at every instrumented site.
NULL_TRACER = _NullTracer()


def chrome_trace(spans: Iterable[Span], origin: float | None = None) -> dict:
    """Spans as Chrome's ``trace_event`` format (complete ``X`` events).

    Load the result in ``chrome://tracing`` / Perfetto: one track per
    engine thread, nesting inferred from time containment.  Attribute
    values are stringified when not JSON-native so arbitrary spec/path
    objects survive export.
    """
    spans = list(spans)
    if origin is None:
        origin = min((span.start for span in spans), default=0.0)
    events = []
    for span in sorted(spans, key=lambda s: s.start):
        end = span.end if span.end is not None else span.start
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": 1,
            "tid": span.tid,
            "cat": "query",
            "args": {key: _jsonable(value)
                     for key, value in span.attrs.items()},
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)

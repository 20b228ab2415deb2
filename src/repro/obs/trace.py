"""Distributed tracing over the simulated ORB.

One logical call — client process, server dispatch, nested calls the
servant makes, retries of failed attempts — becomes one *trace*: a set
of :class:`Span` records linked parent-to-child by span ids and stamped
with simulated time.  Trace context crosses the wire in one GIOP
service-context slot (:data:`TRACE_CONTEXT_ID`: trace number and span
number, two ulongs).  Inside a host, a plain servant's nested calls
find their parent through the ORB's *current request*; generator
servants and retry loops, which run as simulation processes of their
own, find it through the :class:`ContextStore`, which binds a context
to the process executing on behalf of the call.

Ids are integers drawn from per-tracer counters, so a given simulation
produces an identical trace set on every run (the determinism rule of
:mod:`repro.sim.kernel` extends to observability).
"""

from __future__ import annotations

import struct
import weakref
from typing import Any, NamedTuple, Optional

#: GIOP service-context id of the trace slot ("TR" in ASCII).
TRACE_CONTEXT_ID = 0x5452

#: the slot's ``context_data``: trace number, span number.
TRACE_SLOT = struct.Struct(">II")


class TraceContext(NamedTuple):
    """The propagated part of a span: enough to parent a child span."""

    trace_id: int
    span_id: int


class Span:
    """One timed operation within a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind",
                 "host", "start", "end", "status", "error", "attrs")

    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], name: str, kind: str,
                 host: Optional[str], start: float,
                 attrs: dict[str, Any]) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        #: "client", "server" or "internal" (retry envelopes etc.).
        self.kind = kind
        self.host = host
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.error: Optional[str] = None
        self.attrs = attrs

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.span_id} not finished")
        return self.end - self.start

    def __repr__(self) -> str:
        return (f"<Span {self.span_id} {self.name} [{self.kind}] "
                f"{self.status}>")


class Tracer:
    """Creates, finishes and stores spans for one simulation."""

    def __init__(self, env) -> None:
        self.env = env
        self.spans: list[Span] = []
        self._next_trace = 0
        self._next_span = 0

    def start_span(self, name: str, kind: str = "internal",
                   parent: "TraceContext | Span | None" = None,
                   host: Optional[str] = None,
                   attrs: Optional[dict] = None) -> Span:
        """Open a span; a new trace is started when *parent* is None.
        *parent* is a :class:`TraceContext` or the parent span itself;
        the span keeps *attrs*, not a copy."""
        if parent is None:
            self._next_trace += 1
            trace_id = self._next_trace
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span += 1
        span = Span(trace_id, self._next_span, parent_id, name, kind, host,
                    self.env.now, attrs if attrs is not None else {})
        self.spans.append(span)
        return span

    def end_span(self, span: Span, status: str = "ok",
                 error: Optional[str] = None) -> None:
        if span.end is not None:
            return
        span.end = self.env.now
        span.status = status
        span.error = error

    # -- queries -----------------------------------------------------------
    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, in creation order."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def trace_is_connected(self, trace_id: int) -> bool:
        """True when every non-root span's parent is in the same trace.
        Scans every span: to check many traces, group once with
        :meth:`traces` and ask :func:`spans_connected` per group."""
        return spans_connected(
            [s for s in self.spans if s.trace_id == trace_id])


def spans_connected(spans: list[Span]) -> bool:
    """True when *spans* (one trace) is non-empty and every non-root
    span's parent is among them."""
    ids = {s.span_id for s in spans}
    return bool(spans) and all(
        s.parent_id is None or s.parent_id in ids for s in spans
    )


class ContextStore:
    """Trace context bound to simulation processes.

    The kernel is single-threaded but interleaves many processes; a
    global "current context" would leak across unrelated calls.  The
    store keys contexts by :class:`~repro.sim.kernel.Process` instead
    (weakly, so finished processes do not accumulate), and the lookup
    asks the environment which process is executing right now.
    """

    def __init__(self) -> None:
        self._by_proc: "weakref.WeakKeyDictionary[Any, TraceContext]" = (
            weakref.WeakKeyDictionary())

    def bind(self, process, ctx: Optional[TraceContext]
             ) -> Optional[TraceContext]:
        """Bind *ctx* to *process*; returns the previous binding."""
        if process is None:
            return None
        prev = self._by_proc.get(process)
        if ctx is None:
            self._by_proc.pop(process, None)
        else:
            self._by_proc[process] = ctx
        return prev

    def current(self, env) -> Optional[TraceContext]:
        """Context of the process executing right now, if any."""
        proc = env.active_process
        if proc is None:
            return None
        return self._by_proc.get(proc)

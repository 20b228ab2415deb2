"""Trace connectivity: the oracle the tracing tests hold a run's spans to."""

from __future__ import annotations


def spans_connected(spans: list) -> bool:
    """True when *spans* (one trace) is non-empty and every non-root
    span's parent is among them."""
    ids = {s.span_id for s in spans}
    return bool(spans) and all(
        s.parent_id is None or s.parent_id in ids for s in spans
    )


def trace_is_connected(tracer, trace_id: int) -> bool:
    """True when every non-root span of *tracer*'s trace *trace_id* has
    its parent in the same trace."""
    return spans_connected(
        [s for s in tracer.spans if s.trace_id == trace_id])

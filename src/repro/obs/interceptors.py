"""Tracing and metrics request interceptors.

These are the concrete implementations the ORB's portable-interceptor
hook points were made for: :class:`TracingInterceptor` builds causally
linked spans (propagating context through one GIOP service-context
slot, the ORB's current request and the per-process
:class:`~repro.obs.trace.ContextStore`), and
:class:`MetricsInterceptor` feeds the log-bucket histograms that the
``obs_report`` tool summarizes.
"""

from __future__ import annotations

from functools import cache

from repro.obs.trace import TRACE_CONTEXT_ID, TRACE_SLOT

#: histogram shapes: latency in sim-seconds from 1 µs up, sizes in
#: bytes from 16 B up.  Fixed across the whole fleet so per-operation
#: histograms are comparable.
LATENCY_BUCKETS = dict(lo=1e-6, growth=2.0, buckets=40)
SIZE_BUCKETS = dict(lo=16.0, growth=2.0, buckets=28)

#: what the server side records a request under when its target does
#: not declare the operation (or does not exist): the operation string
#: is the peer's, and a cache keyed by it would grow without bound.
UNKNOWN_OPERATION = "<unknown>"
UNKNOWN_SERVE = f"serve:{UNKNOWN_OPERATION}"


def _error_label(exc: BaseException) -> str:
    repo_id = getattr(exc, "repo_id", None) or getattr(exc, "REPO_ID", None)
    return repo_id or type(exc).__name__


class TracingInterceptor:
    """Client + server interceptor producing one span per call leg."""

    def __init__(self, hub) -> None:
        self.hub = hub
        # Span names, formatted once per operation.  Client names are
        # keyed by this program's own operation definitions; server
        # names by the wire's operation string, so an entry whose target
        # turns out not to declare it is dropped again.
        self._call = cache(lambda op: f"call:{op}")
        self._serve: dict[str, str] = {}

    # A leg's span is opened from the (trace, span) ints at hand and
    # closed at the info's ``end``: nothing else ever ends a call leg.

    # -- client side -------------------------------------------------------
    def send_request(self, info) -> None:
        orb = info.orb
        # A plain servant's nested call parents under the request the
        # ORB is running right now; a process (generator servant, retry
        # loop, client) under whatever is bound to it.
        request = orb.current_request
        parent = (request.span if request is not None
                  else self.hub.context.current(orb.env))
        if parent is None:
            trace_id = parent_id = None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = self.hub.tracer.open_leg(self._call(info.odef.name), "client",
                                        orb.host_id, trace_id, parent_id)
        info.service_context.append(
            (TRACE_CONTEXT_ID, TRACE_SLOT.pack(span.trace_id, span.span_id)))
        info.span = span

    def receive_reply(self, info) -> None:
        span = info.span
        if span is not None:
            span.bytes_out = info.request_bytes
            span.bytes_in = info.reply_bytes or None    # a oneway has none
            span.end = info.end
            span.status = "ok"

    def receive_exception(self, info, exc) -> None:
        span = info.span
        if span is not None:
            span.bytes_out = info.request_bytes
            span.bytes_in = info.reply_bytes or None    # none on a timeout
            span.end = info.end
            span.status = "error"
            span.error = _error_label(exc)

    # -- server side -------------------------------------------------------
    def receive_request(self, info) -> None:
        trace_id = parent_id = None
        for context_id, data in info.service_context:
            # A trace slot of the wrong size is no trace slot: the
            # request starts a root span, it is not refused.
            if context_id == TRACE_CONTEXT_ID and len(data) == TRACE_SLOT.size:
                trace_id, parent_id = TRACE_SLOT.unpack(data)
                break
        operation = info.request.operation
        name = self._serve.get(operation)
        if name is None:
            name = self._serve[operation] = f"serve:{operation}"
        span = info.span = self.hub.tracer.open_leg(
            name, "server", info.orb.host_id, trace_id, parent_id)
        span.bytes_in = info.request_bytes

    def child_process(self, info, proc) -> None:
        # Servant generators run as nested processes; calls they make
        # must parent under this dispatch's server span.
        span = info.span
        if span is not None:
            self.hub.context.bind(proc, span.context)

    def finish_request(self, info) -> None:
        span = info.span
        if span is not None:
            span.bytes_out = info.reply_bytes or None   # a oneway has none
            if info.odef is None:
                self._serve.pop(info.request.operation, None)
                span.name = UNKNOWN_SERVE
            span.end = info.end
            if info.exception is not None:
                span.status = "error"
                span.error = _error_label(info.exception)
            else:
                span.status = "ok"


class MetricsInterceptor:
    """Client + server interceptor recording per-operation histograms."""

    def __init__(self, hub) -> None:
        metrics = self.metrics = hub.metrics
        # Histogram handles, resolved once per operation / per meter
        # instead of formatted and looked up by name on every call.
        self._client = cache(lambda op: (
            metrics.histogram(f"orb.client.request_bytes.{op}",
                              **SIZE_BUCKETS),
            metrics.histogram(f"orb.client.latency.{op}", **LATENCY_BUCKETS),
            metrics.histogram(f"orb.client.reply_bytes.{op}",
                              **SIZE_BUCKETS)))
        self._server = cache(lambda op: metrics.histogram(
            f"orb.server.latency.{op}", **LATENCY_BUCKETS))
        self._meter = cache(lambda meter: metrics.histogram(
            f"{meter}.latency", **LATENCY_BUCKETS))

    # -- client side -------------------------------------------------------
    def send_request(self, info) -> None:
        pass

    def receive_reply(self, info) -> None:
        request_bytes, latency, reply_bytes = self._client(info.odef.name)
        request_bytes.record(info.request_bytes)
        if not info.oneway:
            elapsed = info.end - info.start
            latency.record(elapsed)
            if info.reply_bytes:
                reply_bytes.record(info.reply_bytes)
            # oneway sends complete instantly; a 0-latency sample would
            # only distort the meter's percentiles.
            if info.meter is not None:
                self._meter(info.meter).record(elapsed)

    def receive_exception(self, info, exc) -> None:
        self.receive_reply(info)        # the same records, then the errors
        self.metrics.counter(
            f"orb.client.errors.{info.operation}").inc()
        if info.meter is not None:
            self.metrics.counter(f"{info.meter}.errors").inc()

    # -- server side -------------------------------------------------------
    def receive_request(self, info) -> None:
        pass

    def finish_request(self, info) -> None:
        operation = (info.request.operation if info.odef is not None
                     else UNKNOWN_OPERATION)
        self._server(operation).record(info.end - info.start)
        if info.exception is not None:
            self.metrics.counter(f"orb.server.errors.{operation}").inc()

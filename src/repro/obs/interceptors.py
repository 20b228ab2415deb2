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

from repro.obs.trace import TRACE_CONTEXT_ID, TRACE_SLOT, TraceContext

#: histogram shapes: latency in sim-seconds from 1 µs up, sizes in
#: bytes from 16 B up.  Fixed across the whole fleet so per-operation
#: histograms are comparable.
LATENCY_BUCKETS = dict(lo=1e-6, growth=2.0, buckets=40)
SIZE_BUCKETS = dict(lo=16.0, growth=2.0, buckets=28)


def _error_label(exc: BaseException) -> str:
    repo_id = getattr(exc, "repo_id", None) or getattr(exc, "REPO_ID", None)
    return repo_id or type(exc).__name__


class TracingInterceptor:
    """Client + server interceptor producing one span per call leg."""

    def __init__(self, hub) -> None:
        self.hub = hub
        #: operation -> (client, server) span names, formatted once each.
        self._names = cache(lambda op: (f"call:{op}", f"serve:{op}"))

    # -- client side -------------------------------------------------------
    def send_request(self, info) -> None:
        hub = self.hub
        orb = info.orb
        # A plain servant's nested call parents under the request the
        # ORB is running right now; a process (generator servant, retry
        # loop, client) under whatever is bound to it.
        request = orb.current_request
        parent = (request.slots.get("span") if request is not None
                  else hub.context.current(orb.env))
        span = hub.tracer.start_span(
            self._names(info.odef.name)[0], "client", parent,
            orb.host_id,
            {"peer": info.ior.host_id,
             "request_id": info.request_id,
             "oneway": info.oneway})
        info.service_context.append(
            (TRACE_CONTEXT_ID, TRACE_SLOT.pack(span.trace_id, span.span_id)))
        info.slots["span"] = span

    def receive_reply(self, info) -> None:
        span = info.slots.get("span")
        if span is not None:
            span.attrs["bytes_out"] = info.request_bytes
            span.attrs["bytes_in"] = info.reply_bytes
            self.hub.tracer.end_span(span, status="ok")

    def receive_exception(self, info, exc) -> None:
        span = info.slots.get("span")
        if span is not None:
            span.attrs["bytes_out"] = info.request_bytes
            self.hub.tracer.end_span(span, status="error",
                                     error=_error_label(exc))

    # -- server side -------------------------------------------------------
    def receive_request(self, info) -> None:
        parent = None
        for context_id, data in info.service_context:
            # A trace slot of the wrong size is no trace slot: the
            # request starts a root span, it is not refused.
            if context_id == TRACE_CONTEXT_ID and len(data) == TRACE_SLOT.size:
                parent = TraceContext._make(TRACE_SLOT.unpack(data))
                break
        info.slots["span"] = self.hub.tracer.start_span(
            self._names(info.operation)[1], "server", parent,
            info.orb.host_id,
            {"client": info.client, "bytes_in": info.request_bytes})

    def child_process(self, info, proc) -> None:
        # Servant generators run as nested processes; calls they make
        # must parent under this dispatch's server span.
        span = info.slots.get("span")
        if span is not None:
            self.hub.context.bind(proc, span.context)

    def finish_request(self, info) -> None:
        span = info.slots.get("span")
        if span is not None:
            span.attrs["bytes_out"] = info.reply_bytes
            if info.exception is not None:
                self.hub.tracer.end_span(span, status="error",
                                         error=_error_label(info.exception))
            else:
                self.hub.tracer.end_span(span, status="ok")


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

    def _record_client(self, info) -> None:
        request_bytes, latency, reply_bytes = self._client(info.odef.name)
        request_bytes.record(info.request_bytes)
        if not info.oneway:
            elapsed = info.latency
            latency.record(elapsed)
            if info.reply_bytes:
                reply_bytes.record(info.reply_bytes)
            # oneway sends complete instantly; a 0-latency sample would
            # only distort the meter's percentiles.
            if info.meter is not None:
                self._meter(info.meter).record(elapsed)

    def receive_reply(self, info) -> None:
        self._record_client(info)

    def receive_exception(self, info, exc) -> None:
        self._record_client(info)
        self.metrics.counter(
            f"orb.client.errors.{info.operation}").inc()
        if info.meter is not None:
            self.metrics.counter(f"{info.meter}.errors").inc()

    # -- server side -------------------------------------------------------
    def receive_request(self, info) -> None:
        pass

    def finish_request(self, info) -> None:
        self._server(info.operation).record(info.latency)
        if info.exception is not None:
            self.metrics.counter(
                f"orb.server.errors.{info.operation}").inc()

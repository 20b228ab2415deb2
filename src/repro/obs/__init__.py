"""Observability: request tracing, latency/size histograms, reports.

The paper's soft-vs-strong consistency argument (§2.4.3) is a claim
about *measured* bandwidth and latency; this package is the measuring
instrument.  One :class:`Observability` hub per simulation owns a
:class:`~repro.obs.trace.Tracer`, a per-process
:class:`~repro.obs.trace.ContextStore` and the interceptor pair, and
installs them on any number of ORBs:

    rig = SimRig(star(8))
    hub = rig.observe()            # instruments every node's ORB
    ... run the scenario ...
    from repro.tools.obs_report import build_report, render_text
    print(render_text(build_report(hub)))

Everything is simulated-time and seeded-RNG based, so instrumented
runs stay deterministic; uninstrumented ORBs pay nothing (the hook
points are skipped when no interceptor is registered).
"""

from __future__ import annotations

from repro.obs.interceptors import MetricsInterceptor, TracingInterceptor
from repro.obs.trace import (
    ContextStore,
    Span,
    TRACE_CONTEXT_ID,
    TraceContext,
    Tracer,
)

__all__ = [
    "ContextStore",
    "MetricsInterceptor",
    "Observability",
    "Span",
    "TRACE_CONTEXT_ID",
    "TraceContext",
    "Tracer",
    "TracingInterceptor",
]

#: metric name of the pending-reply-table depth gauge.
PENDING_DEPTH_GAUGE = "orb.pending.depth"

#: metric name of the inbound-dispatch depth (admission) gauge.
DISPATCH_DEPTH_GAUGE = "orb.dispatch.depth"

#: histogram of detection-to-recovered latency per supervisor recovery.
RECOVERY_LATENCY_HIST = "supervisor.recovery.latency"


class Observability:
    """One hub per simulation: tracer + context store + interceptors."""

    def __init__(self, env, metrics) -> None:
        self.env = env
        self.metrics = metrics
        self.tracer = Tracer(env)
        self.context = ContextStore()
        self.tracing = TracingInterceptor(self)
        self.metrics_interceptor = MetricsInterceptor(self)
        self.orbs: list = []

    def install(self, orb) -> None:
        """Instrument *orb* with tracing, metrics and a pending gauge."""
        if orb in self.orbs:
            return
        orb.obs = self
        for interceptor in (self.tracing, self.metrics_interceptor):
            orb.add_client_interceptor(interceptor)
            orb.add_server_interceptor(interceptor)
        orb.pending_watchers.append(
            self.metrics.gauge(PENDING_DEPTH_GAUGE).record)
        orb.dispatch_watchers.append(
            self.metrics.gauge(DISPATCH_DEPTH_GAUGE).record)
        self.orbs.append(orb)

    def install_fleet(self, nodes) -> None:
        """Instrument every node in a dict or iterable of nodes."""
        values = nodes.values() if hasattr(nodes, "values") else nodes
        for node in values:
            self.install(node.orb)

    def span(self, name: str, host=None, attrs=None):
        """Open an internal root span for a framework activity
        (recovery, promotion, sweep); the caller ends it via
        ``tracer.end_span``."""
        return self.tracer.start_span(name, kind="internal", host=host,
                                      attrs=attrs)

    def traces(self):
        return self.tracer.traces()

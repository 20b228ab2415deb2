"""Declared metric and span names — the single source of truth.

Every metric or span name the system emits is declared here, either
exactly (:data:`METRIC_NAMES`, :data:`SPAN_NAMES`) or as a family
pattern with ``*`` standing for a dynamic segment
(:data:`METRIC_PATTERNS`, e.g. ``chaos.action.*``).  The simlint
SIM030/SIM031 rules hold every emit-site string literal to this
registry at analysis time, and :func:`undeclared_metrics` /
:func:`undeclared_spans` let tests assert the same containment on a
*live* run — together they make name drift (a typo'd counter silently
splitting a series) a lint error instead of a dashboard mystery.

High-traffic emit sites import their names from here rather than
repeating the literal; single definition points cannot drift.  The
registry deliberately stays a plain module of frozensets: importable
by the analyzer without pulling in simulation machinery.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

# -- constants for converted high-traffic emit sites ----------------------

# deployment/supervisor.py
SUPERVISOR_CHECKPOINTS = "supervisor.checkpoints"
SUPERVISOR_CHECKPOINTS_CORRUPT = "supervisor.checkpoints.corrupt"
SUPERVISOR_ORPHANS_SWEPT = "supervisor.orphans_swept"
SUPERVISOR_PROMOTIONS = "supervisor.promotions"
SUPERVISOR_RECOVERIES = "supervisor.recoveries"
SUPERVISOR_RECOVERY_DEFERRED = "supervisor.recovery.deferred"
SUPERVISOR_REPAIR_FENCED = "supervisor.repair.fenced"
SUPERVISOR_STRANDED = "supervisor.stranded"
SPAN_SUPERVISOR_PROMOTE = "supervisor.promote"
SPAN_SUPERVISOR_RECOVER = "supervisor.recover"

# orb/core.py (requester), orb/listener.py, orb/channels.py
ORB_BAD_MESSAGES = "orb.bad_messages"
ORB_DISPATCHES = "orb.dispatches"
ORB_LATE_REPLIES = "orb.late_replies"
ORB_ONEWAYS = "orb.oneways"
ORB_PIPELINE_FLUSHES = "orb.pipeline.flushes"
ORB_PIPELINE_FRAMES = "orb.pipeline.frames"
ORB_REPLIES = "orb.replies"
ORB_REQUESTS = "orb.requests"
ORB_SERVANT_ERRORS = "orb.servant_errors"
ORB_SHED = "orb.shed"
ORB_SHED_ONEWAY = "orb.shed.oneway"
ORB_TIMEOUTS = "orb.timeouts"

# sim/network.py; the ORB counts a collocated call on a dead host there too
NET_DROPPED_SRC_DEAD = "net.dropped.src_dead"

# registry/federation/
FEDERATION_EPOCH_CLAMPED = "federation.epoch_clamped"
FEDERATION_LOOKUP_FAILOVER = "federation.lookup.failover"
FEDERATION_LOOKUP_FLOOD_FALLBACK = "federation.lookup.flood_fallback"
FEDERATION_LOOKUP_RING_FALLBACK = "federation.lookup.ring_fallback"
FEDERATION_REJECTED_UNKNOWN_HOST = "federation.rejected.unknown_host"
FEDERATION_ROUNDS = "federation.rounds"

# events/
BUS_DELIVERED = "bus.delivered"
BUS_NO_SUBSCRIBER = "bus.no_subscriber"
BUS_PUBLISHED = "bus.published"
BUS_REMOTE_BATCHES = "bus.remote.batches"
BUS_REMOTE_ERRORS = "bus.remote.errors"
BUS_REMOTE_EVENTS = "bus.remote.events"

#: exact metric names (counters, gauges, histograms, labelled
#: families) the system may emit.
METRIC_NAMES: frozenset[str] = frozenset({
    # aggregation / grid
    "aggregation.reruns",
    "aggregation.runs",
    "volunteer.registrations",
    "volunteer.requeues",
    # analysis gate
    "analysis.rejected",
    # load balancing / migration
    "balance.failures",
    "balance.migrations",
    "migration.completed",
    "migration.package_bytes",
    "migration.rollbacks",
    "migration.started",
    # circuit breakers / retries
    "breaker.closed",
    "breaker.fast_fails",
    "breaker.half_open",
    "breaker.opened",
    "orb.retries",
    "orb.retries.shed",
    # chaos
    "chaos.actions",
    "chaos.heals",
    "chaos.skipped",
    "chaos.violations",
    # deployment
    "deploy.applications",
    "deploy.packages_shipped",
    SUPERVISOR_CHECKPOINTS,
    SUPERVISOR_CHECKPOINTS_CORRUPT,
    SUPERVISOR_ORPHANS_SWEPT,
    SUPERVISOR_PROMOTIONS,
    SUPERVISOR_RECOVERIES,
    SUPERVISOR_RECOVERY_DEFERRED,
    SUPERVISOR_REPAIR_FENCED,
    SUPERVISOR_STRANDED,
    "supervisor.recovery.latency",
    # events
    BUS_DELIVERED,
    BUS_NO_SUBSCRIBER,
    BUS_PUBLISHED,
    BUS_REMOTE_BATCHES,
    BUS_REMOTE_ERRORS,
    BUS_REMOTE_EVENTS,
    # federation
    FEDERATION_EPOCH_CLAMPED,
    FEDERATION_LOOKUP_FAILOVER,
    FEDERATION_LOOKUP_FLOOD_FALLBACK,
    FEDERATION_LOOKUP_RING_FALLBACK,
    FEDERATION_REJECTED_UNKNOWN_HOST,
    FEDERATION_ROUNDS,
    # network
    "net.bytes",
    "net.bytes.backbone",
    "net.corrupted.bitflip",
    "net.corrupted.duplicate",
    "net.corrupted.reorder",
    "net.corrupted.truncate",
    "net.delivered",
    "net.dropped.dst_dead",
    "net.dropped.link_down",
    "net.dropped.loss",
    NET_DROPPED_SRC_DEAD,
    "net.dropped.unknown_dst",
    "net.dropped.unreachable",
    "net.hops",
    "net.link_bytes",
    "net.local",
    "net.logical",
    "net.messages",
    "net.unrouted",
    # node / orb
    "node.component_requests",
    ORB_BAD_MESSAGES,
    ORB_DISPATCHES,
    ORB_LATE_REPLIES,
    ORB_ONEWAYS,
    ORB_PIPELINE_FLUSHES,
    ORB_PIPELINE_FRAMES,
    ORB_REPLIES,
    ORB_REQUESTS,
    ORB_SERVANT_ERRORS,
    ORB_SHED,
    ORB_SHED_ONEWAY,
    ORB_TIMEOUTS,
    "orb.pending.depth",
    "orb.dispatch.depth",
    # registry
    "registry.promotions",
    "registry.queries.served",
    "replication.groups",
    "replication.promotions",
    "replication.syncs",
    "resolver.closure_installs",
    "resolver.fetched",
    "resolver.local_hits",
    "resolver.mrm_failover",
    "resolver.remote_instances",
    "resolver.requests",
    "resolver.reused_running",
})

#: metric name families with ``*`` for a dynamic segment.
METRIC_PATTERNS: frozenset[str] = frozenset({
    # per-meter traffic accounting (softstate/strongstate/query/...)
    "*.bytes",
    "*.msgs",
    "*.errors",
    # batch writers are instantiated per name
    "*.dropped",
    "*.flushed",
    "*.flushes",
    # request-path latency/size histograms (per subsystem / operation)
    "*.latency",
    "orb.client.latency.*",
    "orb.client.reply_bytes.*",
    "orb.client.request_bytes.*",
    "orb.server.latency.*",
    # per-state / per-operation / per-kind counter families
    "breaker.*",
    "chaos.action.*",
    "orb.client.errors.*",
    "orb.retries.*",
    "orb.server.errors.*",
})

#: exact span labels.
SPAN_NAMES: frozenset[str] = frozenset({
    SPAN_SUPERVISOR_PROMOTE,
    SPAN_SUPERVISOR_RECOVER,
})

#: span label families with ``*`` for a dynamic segment.
SPAN_PATTERNS: frozenset[str] = frozenset({
    "breaker:*->*",
    "call:*",
    "chaos:*",
    "retry:*",
    "serve:*",
})


def metric_declared(name: str) -> bool:
    """Is *name* (a literal, or a ``*``-canonical pattern) declared?"""
    if "*" in name:
        return name in METRIC_PATTERNS
    return name in METRIC_NAMES or any(
        fnmatchcase(name, pattern) for pattern in METRIC_PATTERNS)


def span_declared(name: str) -> bool:
    if "*" in name:
        return name in SPAN_PATTERNS
    return name in SPAN_NAMES or any(
        fnmatchcase(name, pattern) for pattern in SPAN_PATTERNS)


def undeclared_metrics(registry) -> set[str]:
    """Names a live :class:`~repro.sim.stats.MetricRegistry` holds
    that are not declared here — for runtime-containment tests."""
    emitted: set[str] = set()
    emitted.update(registry._counters)
    emitted.update(registry._gauges)
    emitted.update(registry._histograms)
    emitted.update(registry._labelled)
    return {name for name in emitted if not metric_declared(name)}


def undeclared_spans(tracer) -> set[str]:
    """Span names a live tracer recorded that are not declared here."""
    out: set[str] = set()
    for trace in tracer.traces().values():
        for span in trace:
            if not span_declared(span.name):
                out.add(span.name)
    return out

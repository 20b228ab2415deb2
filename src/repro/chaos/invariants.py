"""Composable invariant monitors probed by chaos campaigns.

Each monitor checks one system-level property against the *live*
simulated world — not against logs.  Monitors are probed between fault
actions (``phase="mid"``) and after the campaign heals everything and
lets the system settle (``phase="quiescence"``).

Mid-flight, most properties are legitimately violated in the window
between a fault and the system's reaction (that is the point of
self-healing), so only monitors with ``strict_mid = True`` turn a mid
failure into a violation; the rest record the observation and enforce
only at quiescence, when the system has had every chance to converge.

A probe may be a plain function (pure state inspection) or a generator
(it issues simulated RPCs, e.g. the resolution probes); either way it
returns ``(ok, detail)``.
"""

from __future__ import annotations

from typing import Iterable

from repro.orb.exceptions import SystemException
from repro.sim.hostloop import host_loops
from repro.xmlmeta.descriptors import QoSSpec

MID = "mid"
QUIESCENCE = "quiescence"


class InvariantMonitor:
    """Base class: name, mid-strictness, and a probe."""

    #: short stable identifier used in reports.
    name = "invariant"
    #: when True, a failed mid-campaign probe is a violation too.
    strict_mid = False

    def probe(self, world, phase: str):
        """Return ``(ok, detail)``; may be a generator that yields
        simulation events before returning."""
        raise NotImplementedError


def _running_ground_truth(world) -> set:
    """Hosts that really run a provider of the world's repo-id now."""
    out = set()
    for host in world.alive_hosts():
        if world.rig.node(host).registry.running_providers(world.repo_id):
            out.add(host)
    return out


def _local_fast_path(world) -> set:
    """What ``ResolverBase._resolve`` answers before ever asking the
    network: the querying node's own running providers.  Both lookup
    monitors union this in, mirroring what resolution delivers."""
    node = world.rig.node(world.coordinator)
    if node.registry.running_providers(world.repo_id):
        return {world.coordinator}
    return set()


class FederatedResolvableMonitor(InvariantMonitor):
    """Every running provider is resolvable through the shard ring
    (with its dead-owner fallbacks) within a latency bound."""

    name = "resolvable.federated"

    def __init__(self, ttl_bound: float = 6.0) -> None:
        self.ttl_bound = ttl_bound

    def probe(self, world, phase: str):
        env = world.rig.env
        resolver = world.federation.resolvers[world.coordinator]
        truth = _running_ground_truth(world)
        start = env.now
        try:
            cands = yield from resolver._find(world.repo_id, QoSSpec())
        except SystemException as exc:
            return False, f"federated lookup raised {exc!r}"
        elapsed = env.now - start
        found = ({c.host for c in cands if c.is_running}
                 | _local_fast_path(world))
        missing = truth - found
        detail = (f"{len(found)}/{len(truth)} running providers "
                  f"in {elapsed:.3f}s")
        if elapsed > self.ttl_bound:
            return False, f"lookup took {elapsed:.3f}s > {self.ttl_bound}s"
        if phase == QUIESCENCE and missing:
            return False, (f"unresolvable running providers "
                           f"{sorted(missing)} ({detail})")
        if phase == MID and truth and not found:
            # Mid-campaign staleness may hide *some* providers, but a
            # completely empty answer while providers run is recorded.
            return True, f"degraded: no providers visible ({detail})"
        return True, detail


class FloodResolvableMonitor(InvariantMonitor):
    """The emergency flood path agrees with per-node ground truth."""

    name = "resolvable.flood"

    def __init__(self, ttl_bound: float = 6.0) -> None:
        self.ttl_bound = ttl_bound

    def probe(self, world, phase: str):
        env = world.rig.env
        resolver = world.federation.resolvers[world.coordinator]
        truth = _running_ground_truth(world)
        start = env.now
        try:
            cands = yield from resolver._flood_find(world.repo_id,
                                                    QoSSpec())
        except SystemException as exc:
            return False, f"flood lookup raised {exc!r}"
        elapsed = env.now - start
        found = ({c.host for c in cands if c.is_running}
                 | _local_fast_path(world))
        missing = truth - found
        detail = (f"{len(found)}/{len(truth)} running providers "
                  f"in {elapsed:.3f}s")
        if elapsed > self.ttl_bound:
            return False, f"flood took {elapsed:.3f}s > {self.ttl_bound}s"
        if phase == QUIESCENCE and missing:
            return False, (f"flood missed running providers "
                           f"{sorted(missing)} ({detail})")
        return True, detail


class SinglePrimaryMonitor(InvariantMonitor):
    """Replica-group fencing: never two members claiming the current
    epoch; at quiescence the primary sits on a live host."""

    name = "replica.single_primary"
    strict_mid = True

    def probe(self, world, phase: str):
        group = world.group
        ids = [m.instance_id for m in group.members]
        if len(ids) != len(set(ids)):
            return False, f"duplicate member instance ids: {ids}"
        designated = [m for m in group.members
                      if m.instance_id == group.primary_id]
        if len(designated) != 1:
            return False, (f"{len(designated)} members designated "
                           f"primary ({group.primary_id!r})")
        # Backups legitimately share the primary's epoch once a sync
        # hands them its state generation; fencing means the designated
        # primary carries the *newest* epoch and nobody exceeds it.
        ahead = [m for m in group.members if m.epoch > group.epoch]
        if ahead:
            return False, (f"members ahead of group epoch "
                           f"{group.epoch}: "
                           f"{[m.instance_id for m in ahead]}")
        if group.epoch > 0 and designated[0].epoch != group.epoch:
            return False, (f"designated primary {group.primary_id} "
                           f"holds stale epoch {designated[0].epoch} "
                           f"!= group epoch {group.epoch}")
        if phase == QUIESCENCE:
            primary = group.primary
            if primary is None:
                return False, "group has no primary at quiescence"
            if not world.topology.host(primary.host).alive:
                return False, (f"primary {primary.instance_id} sits on "
                               f"dead host {primary.host}")
        return True, (f"epoch={group.epoch} "
                      f"primary={group.primary_id}")


class NoOrphanInstancesMonitor(InvariantMonitor):
    """After the supervisor settles, every displaced incarnation has
    been swept and each instance runs exactly where placement says."""

    name = "deployment.no_orphans"

    def probe(self, world, phase: str):
        orphans = list(world.deployer.orphans)
        if phase != QUIESCENCE:
            return True, f"{len(orphans)} orphan(s) pending sweep"
        if orphans:
            return False, f"unswept orphans: {orphans}"
        app = world.app
        for name, host in app.placement.items():
            if not world.topology.host(host).alive:
                return False, (f"instance {name} placed on dead host "
                               f"{host}")
            iid = app.instance_id(name)
            copies = [h for h in world.alive_hosts()
                      if world.rig.node(h).container.find_instance(iid)
                      is not None]
            if copies != [host]:
                return False, (f"instance {name} ({iid}) incarnated on "
                               f"{copies}, placement says [{host}]")
        return True, f"{len(app.placement)} instances, all singular"


class MembershipConvergenceMonitor(InvariantMonitor):
    """Gossiped membership converges to topology ground truth and all
    owners agree, within the quiescence settle window."""

    name = "federation.membership"

    def probe(self, world, phase: str):
        fed = world.federation
        truth = set(world.alive_hosts())
        live = fed.live_hosts()
        if phase != QUIESCENCE:
            return True, (f"membership sees {len(live)}/{len(truth)} "
                          f"live hosts")
        missing = truth - live
        extra = live - truth
        if missing or extra:
            return False, (f"membership diverged from ground truth: "
                           f"missing={sorted(missing)} "
                           f"extra={sorted(extra)}")
        if not fed.owner_views_agree():
            return False, "owner membership views disagree"
        return True, f"{len(live)} hosts, owners agree"


class ControlLoopsAliveMonitor(InvariantMonitor):
    """Every host-bound loop runs exactly when its host is up: each
    :class:`~repro.sim.hostloop.HostLoop` on a world host (the
    supervisor, every owner's gossip loop and every reporter, and any
    loop added later) is neither dead on a live host (never none) nor
    still running on a crashed one (never two after its restart); the
    chaos clients must not have died of an unhandled error."""

    name = "loops.alive"
    strict_mid = True

    def probe(self, world, phase: str):
        dead = [f"{loop.body.__qualname__}@{host.host_id}"
                for host in world.topology.hosts()
                for loop in host_loops(host)
                if loop.alive != host.alive]
        if not world.client_stop:
            for host, proc in zip(world.client_hosts,
                                  world.client_procs):
                if not proc.is_alive:
                    dead.append(f"client:{host}")
        if dead:
            return False, f"control loops out of step with host: {dead}"
        return True, "supervisor, owners, reporters, clients all live"


class AdmissionRecoveredMonitor(InvariantMonitor):
    """After faults heal and traffic drains, nothing is wedged: no
    reply has been pending longer than the call-deadline horizon
    (background loops legitimately have *young* calls in flight at any
    instant), no ORB holds a deadline for an answered call on top of
    its heap (so one with nothing pending holds none), every breaker
    admits calls to live peers again, and retry budgets have
    refilled."""

    name = "admission.recovered"
    #: the call-deadline horizon: older pending replies are wedged
    stale_after = 6.0

    def probe(self, world, phase: str):
        if phase != QUIESCENCE:
            return True, "checked at quiescence only"
        now = world.rig.env.now
        for host, node in world.rig.nodes.items():
            for rid, (ev, odef, info) in node.orb._pending.items():
                age = now - getattr(info, "start", now)
                if age > self.stale_after:
                    return False, (f"reply {rid} ({odef.name}) on "
                                   f"{host} pending {age:.3f}s — the "
                                   f"deadline sweeper never expired it")
            heap = node.orb._deadline_heap
            if heap and heap[0][1] not in node.orb._pending:
                return False, (f"answered call {heap[0][1]} heads the "
                               f"deadline heap on {host}")
        for host, registry in world.breakers.items():
            for peer, breaker in registry._breakers.items():
                if world.topology.host(peer).alive and not breaker.allow():
                    return False, (f"breaker {host}->{peer} wedged "
                                   f"{breaker.state} after drain")
        for host, budget in world.budgets.items():
            if budget.available() < 1.0:
                return False, (f"retry budget on {host} still dry "
                               f"({budget.available():.2f} tokens)")
        return True, "orbs drained, breakers admitting, budgets refilled"


def default_monitors(ttl_bound: float = 6.0) -> list:
    """The standard panel, in probe order."""
    return [
        ControlLoopsAliveMonitor(),
        SinglePrimaryMonitor(),
        FederatedResolvableMonitor(ttl_bound=ttl_bound),
        FloodResolvableMonitor(ttl_bound=ttl_bound),
        NoOrphanInstancesMonitor(),
        MembershipConvergenceMonitor(),
        AdmissionRecoveredMonitor(),
    ]


def probe_monitor(monitor: InvariantMonitor, world, phase: str):
    """Drive one probe, generator or not; yields from generators."""
    result = monitor.probe(world, phase)
    if hasattr(result, "__next__"):
        result = yield from result
    return result


__all__: Iterable[str] = [
    "InvariantMonitor", "FederatedResolvableMonitor",
    "FloodResolvableMonitor", "SinglePrimaryMonitor",
    "NoOrphanInstancesMonitor", "MembershipConvergenceMonitor",
    "ControlLoopsAliveMonitor", "AdmissionRecoveredMonitor",
    "default_monitors", "probe_monitor", "MID", "QUIESCENCE",
]

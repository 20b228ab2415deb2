"""Self-healing deployment supervision (§2.4.3).

The paper requires protocols that "support spurious node failures and
node disconnections (and re-connections) gracefully", but deployment
alone only *places* instances — nothing reacts when the host under one
dies.  The :class:`ApplicationSupervisor` closes that loop from the
deployer's coordinator node:

- **liveness** comes from the Distributed Registry's soft-state views
  when one is provided (a host whose reports the MRMs stopped seeing is
  presumed down) and from ground-truth topology otherwise;
- **stranded instances** — deployed instances whose host is down — are
  *re-planned* onto a live host with the deployer's planner and
  re-incarnated there (from the last supervisor checkpoint of their
  externalized state) via the migration/incarnation machinery, then
  their connections are re-wired;
- **coordinated replica groups** registered via :meth:`watch_group` get
  their primary *promoted* to a live backup under a fresh fencing
  epoch, so a restarted ex-primary can never push stale state back;
- **orphans** — instances stranded on dead hosts by teardown or left
  behind by a repair — are destroyed once their host returns;
- when no live host has capacity, the recovery is **queued** and
  retried with exponential backoff instead of being dropped.

Every recovery emits metrics (``supervisor.*`` counters, the
``supervisor.recovery.latency`` histogram) and, when the coordinator's
ORB is instrumented, one trace span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.container.agent import StateDecodeError, loads_state
from repro.container.replication import (
    ReplicaGroup,
    ReplicaManager,
    ReplicationError,
)
from repro.deployment.application import (
    Application,
    Deployer,
    DeploymentError,
    RepairSuperseded,
)
from repro.deployment.planner import PlacementError
from repro.obs import RECOVERY_LATENCY_HIST
from repro.obs import names
from repro.orb.exceptions import SystemException, UserException
from repro.sim.hostloop import HostLoop
from repro.sim.kernel import Event


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed recovery, for reports and benchmarks."""

    time: float
    kind: str                   # "replan" | "promote"
    name: str                   # instance name or component name
    old_host: str
    new_host: str
    latency: float              # detection -> recovered, sim seconds
    attempts: int = 1


@dataclass
class _Pending:
    """A stranded instance waiting for (another) recovery attempt."""

    detected: float
    next_try: float
    attempts: int = 0
    #: the instance's incarnation epoch when it was detected stranded;
    #: the repair is fenced on it (see Application.incarnations).
    epoch: int = 0


class ApplicationSupervisor:
    """Watches a deployer's applications and heals them after crashes."""

    def __init__(self, deployer: Deployer, interval: float = 5.0,
                 checkpoint: bool = True, registry=None,
                 backoff_base: float = 2.0,
                 backoff_cap: float = 60.0) -> None:
        self.deployer = deployer
        self.node = deployer.coordinator
        self.env = deployer.env
        self.topology = deployer.topology
        self.interval = interval
        self.checkpoint = checkpoint
        #: optional registry back end (MRM hierarchy or federation)
        #: supplying soft-state liveness through ``live_hosts()``.
        self.registry = registry
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.recoveries: list[RecoveryRecord] = []
        self.watched_groups: list[tuple[ReplicaGroup, ReplicaManager]] = []
        #: instance_id -> last externalized state seen alive.
        self.checkpoints: dict[str, dict] = {}
        self._pending: dict[tuple[str, str], _Pending] = {}
        #: instances with a recovery currently in flight — a second
        #: tick (or a run_once overlapping the loop) must not start a
        #: competing repair of the same instance.
        self._repairing: set[tuple[str, str]] = set()
        self._live_cache: Optional[tuple[float, set]] = None
        #: (app.name, instance) -> app, connections still to re-wire.
        self._pending_rewires: dict[tuple[str, str], Application] = {}
        self.loop = HostLoop(self.env, self.node.host, self._loop,
                             on_crash=self._lose_state)

    # -- lifecycle ---------------------------------------------------------
    def _lose_state(self) -> None:
        # The coordinator's RAM is gone with it.
        self.checkpoints.clear()
        self._pending.clear()
        self._repairing.clear()
        self._pending_rewires.clear()

    def stop(self) -> None:
        """End supervision for good: no coordinator restart revives it."""
        self.loop.stop()

    def watch_group(self, group: ReplicaGroup,
                    manager: ReplicaManager) -> None:
        """Supervise a replica group: promote on primary-host death."""
        self.watched_groups.append((group, manager))

    # -- liveness ----------------------------------------------------------
    def _host_alive(self, host_id: str) -> bool:
        if self.registry is not None:
            return host_id in self._live_view()
        return self.topology.host(host_id).alive

    def _live_view(self) -> set:
        """The registry's live-host set, computed once per sim-instant.

        Liveness is asked per watched instance; against a federated
        (gossip-backed) registry on a large population that merge is
        the expensive part of a tick, and within one instant the
        answer cannot change.
        """
        if self._live_cache is None or self._live_cache[0] != self.env.now:
            self._live_cache = (self.env.now,
                                set(self.registry.live_hosts()))
        return self._live_cache[1]

    # -- main loop ---------------------------------------------------------
    def _loop(self):
        while True:
            yield self.env.timeout(self.interval)
            yield from self._tick()

    def run_once(self) -> Event:
        """One full supervision pass, as a process event (for tests)."""
        return self.env.process(self._tick())

    def _tick(self):
        yield from self._sweep_orphans()
        yield from self._check_groups()
        yield from self._check_applications()
        yield from self._retry_rewires()
        if self.checkpoint:
            yield from self._checkpoint_pass()

    # -- orphan sweep ------------------------------------------------------
    def _sweep_orphans(self):
        """Destroy teardown/repair leftovers on hosts that returned."""
        for entry in list(self.deployer.orphans):
            host, instance_id = entry
            if not self.topology.host(host).alive:
                continue
            agent = self.node.service_stub(host, "container")
            try:
                yield agent.destroy_instance(instance_id)
            except UserException:
                pass                    # already gone: still swept
            except SystemException:
                continue                # crashed again; retry next pass
            if entry in self.deployer.orphans:
                self.deployer.orphans.remove(entry)
            self.node.metrics.counter(names.SUPERVISOR_ORPHANS_SWEPT).inc()

    # -- replica promotion -------------------------------------------------
    def _check_groups(self):
        for group, manager in list(self.watched_groups):
            if group.mode != "coordinated" or not group.members:
                continue
            primary = group.primary
            if self._host_alive(primary.host):
                continue
            obs = getattr(self.node.orb, "obs", None)
            span = obs.span(names.SPAN_SUPERVISOR_PROMOTE, host=self.node.host_id,
                            attrs={"component": group.component,
                                   "dead_host": primary.host}) if obs else None
            epoch_before = group.epoch
            try:
                new_primary = group.select_primary(self.topology)
            except ReplicationError as exc:
                self.node.metrics.counter(
                    names.SUPERVISOR_RECOVERY_DEFERRED).inc()
                if span:
                    obs.tracer.end_span(span, status="deferred",
                                        error=str(exc))
                continue
            if group.epoch != epoch_before:
                self.node.metrics.counter(names.SUPERVISOR_PROMOTIONS).inc()
                self.recoveries.append(RecoveryRecord(
                    time=self.env.now, kind="promote",
                    name=group.component, old_host=primary.host,
                    new_host=new_primary.host, latency=0.0))
            try:
                # Align the surviving backups with the promoted primary.
                yield from manager._sync(group)
            except (ReplicationError, SystemException, UserException):
                pass                    # next pass retries
            if span:
                obs.tracer.end_span(span, status="ok")

    # -- stranded application instances ------------------------------------
    def _check_applications(self):
        for app in list(self.deployer.applications):
            if app.torn_down:
                continue
            for name in list(app.placement):
                key = (app.name, name)
                if key in self._repairing:
                    # Another pass is mid-recovery on this instance;
                    # racing it would double-incarnate.
                    continue
                if self._host_alive(app.placement[name]):
                    # Back (or never gone): the instance survived in its
                    # container; nothing to recover.
                    self._pending.pop(key, None)
                    continue
                pend = self._pending.get(key)
                if pend is None:
                    pend = _Pending(detected=self.env.now,
                                    next_try=self.env.now,
                                    epoch=app.incarnation(name))
                    self._pending[key] = pend
                    self.node.metrics.counter(names.SUPERVISOR_STRANDED).inc()
                if self.env.now < pend.next_try:
                    continue
                self._repairing.add(key)
                try:
                    yield from self._recover_instance(app, name, pend)
                finally:
                    self._repairing.discard(key)

    def _recover_instance(self, app: Application, name: str,
                          pend: _Pending):
        dead_host = app.placement[name]
        obs = getattr(self.node.orb, "obs", None)
        span = obs.span(names.SPAN_SUPERVISOR_RECOVER, host=self.node.host_id,
                        attrs={"application": app.name, "instance": name,
                               "dead_host": dead_host,
                               "attempt": pend.attempts + 1}) if obs else None
        try:
            views = yield from self.deployer._gather_views()
            qos_of = self.deployer._qos_of(app.assembly)
            target = self.deployer.planner.replan_instance(
                app.assembly, name, views, qos_of, exclude=(dead_host,))
            state = self.checkpoints.get(app.instance_id(name))
            # Planning yielded; the world may have moved on.  If the
            # "dead" host healed, its container still holds the live,
            # authoritative instance — re-incarnating it elsewhere now
            # would duplicate it and roll its state back to the last
            # checkpoint.  Same if a competing recovery already bumped
            # the incarnation epoch.
            if (self._host_alive(dead_host)
                    or app.incarnation(name) != pend.epoch):
                raise RepairSuperseded(
                    f"{name!r} came back on {dead_host} (or was "
                    f"repaired by someone else) while recovery was "
                    f"planning")
            skipped = yield from app._repair(name, target, state,
                                             fence=pend.epoch)
        except RepairSuperseded as exc:
            # Clean abort, not a failure: the instance is alive again
            # (or already repaired); drop the queued recovery.
            self._pending.pop((app.name, name), None)
            self.node.metrics.counter(names.SUPERVISOR_REPAIR_FENCED).inc()
            if span:
                obs.tracer.end_span(span, status="fenced",
                                    error=str(exc))
            return
        except (PlacementError, DeploymentError, SystemException,
                UserException) as exc:
            # Degrade gracefully: keep the recovery queued and back off.
            pend.attempts += 1
            pend.next_try = self.env.now + min(
                self.backoff_base * (2 ** (pend.attempts - 1)),
                self.backoff_cap)
            self.node.metrics.counter(names.SUPERVISOR_RECOVERY_DEFERRED).inc()
            if span:
                obs.tracer.end_span(span, status="deferred",
                                    error=str(exc))
            return
        if skipped:
            self._pending_rewires[(app.name, name)] = app
        self._pending.pop((app.name, name), None)
        latency = self.env.now - pend.detected
        self.node.metrics.counter(names.SUPERVISOR_RECOVERIES).inc()
        self.node.metrics.histogram(RECOVERY_LATENCY_HIST).record(
            max(latency, 1e-9))
        self.recoveries.append(RecoveryRecord(
            time=self.env.now, kind="replan", name=name,
            old_host=dead_host, new_host=target, latency=latency,
            attempts=pend.attempts + 1))
        if span:
            obs.tracer.end_span(span, status="ok")

    # -- deferred rewires --------------------------------------------------
    def _retry_rewires(self):
        """Re-aim connections whose user host was down at repair time."""
        for key, app in list(self._pending_rewires.items()):
            _, name = key
            if app.torn_down:
                self._pending_rewires.pop(key, None)
                continue
            try:
                skipped = yield from app._rewire(name)
            except SystemException:
                continue                # user crashed mid-rewire; retry
            if not skipped:
                self._pending_rewires.pop(key, None)

    # -- checkpoints -------------------------------------------------------
    def _checkpoint_pass(self):
        """Snapshot live instances' externalized state for later repair."""
        for app in list(self.deployer.applications):
            if app.torn_down:
                continue
            for name, host in list(app.placement.items()):
                if not self.topology.host(host).alive:
                    continue
                agent = self.node.service_stub(host, "container")
                try:
                    data = yield agent.get_state(app.instance_id(name))
                except (SystemException, UserException):
                    continue
                try:
                    state = loads_state(data)
                except StateDecodeError:
                    # Wire corruption handed back garbage: keep the
                    # previous good checkpoint, never die over it.
                    self.node.metrics.counter(
                        names.SUPERVISOR_CHECKPOINTS_CORRUPT).inc()
                    continue
                self.checkpoints[app.instance_id(name)] = state
                self.node.metrics.counter(names.SUPERVISOR_CHECKPOINTS).inc()

"""Volunteer computing (§3.2, after Sarmenta's Bayanihan).

Hosts *volunteer* while their user is idle and withdraw when the user
returns.  The master farms work shards onto registered volunteers,
installing the worker component on first contact, and re-queues shards
whose volunteer crashed or timed out — so the computation completes
despite churn (measured by benchmark C9).

Volunteers finish the shard they are on when their user comes back
(BOINC-style); they simply stop receiving new shards.
"""

from __future__ import annotations

from typing import Optional

from repro.components.reflection import InstanceInfo
from repro.container.aggregation import (
    WORKER_IFACE,
    dumps_shard,
    loads_shard,
)
from repro.grid.idle import IdleMonitor
from repro.idl import compile_idl
from repro.orb.core import Servant
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.sim.kernel import Event, Interrupt
from repro.util.errors import ReproError

_MASTER_IDL = """
#pragma prefix "corbalc"
module Grid {
  interface Master {
    void register_volunteer(in string host);
    void unregister_volunteer(in string host);
    long pending_units();
  };
};
"""

MASTER_IFACE = compile_idl(_MASTER_IDL).Grid.Master

_PROCESS = WORKER_IFACE.operations["process_shard"]

#: sim-seconds between the master's passes over its queue
DISPATCH_INTERVAL = 0.25


class VolunteerError(ReproError):
    """Misconfigured volunteer computation."""


class MasterServant(Servant):
    _interface = MASTER_IFACE

    def __init__(self, master: "VolunteerMaster") -> None:
        self._master = master

    def register_volunteer(self, host: str) -> None:
        self._master.on_register(host)

    def unregister_volunteer(self, host: str) -> None:
        self._master.on_unregister(host)

    def pending_units(self) -> int:
        return len(self._master.queue) + len(self._master.in_flight)


class VolunteerMaster:
    """Farms shards of one component's work over volunteering hosts."""

    def __init__(self, node, component_name: str,
                 shard_timeout: float = 30.0) -> None:
        self.node = node
        self.component_name = component_name
        self.shard_timeout = shard_timeout
        self.queue: list[dict] = []
        self.in_flight: dict[str, dict] = {}       # host -> shard
        self.partials: list = []
        self.volunteers: set[str] = set()
        self.workers: dict[str, IOR] = {}          # host -> worker facet
        self.requeues = 0
        self.done: Optional[Event] = None
        self._servant = MasterServant(self)
        node.orb.adapter("grid").activate(self._servant, key="master")
        self._dispatcher = None

    @property
    def ior(self) -> IOR:
        return self.node.orb.adapter("grid").ior_for("master")

    # -- membership (called by the servant) --------------------------------
    def on_register(self, host: str) -> None:
        self.volunteers.add(host)
        self.node.metrics.counter("volunteer.registrations").inc()

    def on_unregister(self, host: str) -> None:
        self.volunteers.discard(host)

    # -- work -------------------------------------------------------------------
    def submit(self, shards: list[dict]) -> Event:
        """Queue *shards*; returns an event yielding all partial results."""
        if self._dispatcher is not None and self._dispatcher.is_alive:
            raise VolunteerError("a computation is already running")
        self.queue = list(shards)
        self.partials = []
        self.done = self.node.env.event()
        self._dispatcher = self.node.env.process(self._dispatch_loop())
        return self.done

    def _dispatch_loop(self):
        env = self.node.env
        try:
            while self.queue or self.in_flight:
                free = [h for h in sorted(self.volunteers)
                        if h not in self.in_flight
                        and self.node.network.topology.host(h).alive]
                while self.queue and free:
                    host = free.pop(0)
                    shard = self.queue.pop(0)
                    self.in_flight[host] = shard
                    env.process(self._assign(host, shard))
                yield env.timeout(DISPATCH_INTERVAL)
            self.done.succeed(list(self.partials))
        except Interrupt:
            if self.done is not None and not self.done.triggered:
                self.done.fail(VolunteerError("master stopped")).defused()

    def _assign(self, host: str, shard: dict):
        try:
            facet = self.workers.get(host)
            if facet is None:
                facet = yield from self._provision(host)
            raw = yield self.node.orb.invoke(
                facet, _PROCESS, (dumps_shard(shard),),
                timeout=self.shard_timeout, meter="volunteer")
            self.partials.append(loads_shard(raw))
        except SystemException:
            # Volunteer died or timed out: requeue the shard.
            self.queue.append(shard)
            self.requeues += 1
            self.workers.pop(host, None)
            self.volunteers.discard(host)
            self.node.metrics.counter("volunteer.requeues").inc()
        finally:
            self.in_flight.pop(host, None)

    def _provision(self, host: str):
        """Install (if needed) and instantiate the worker on *host*."""
        cls = self.node.repository.lookup(self.component_name)
        exact = f"=={cls.version}"
        if host != self.node.host_id:
            acceptor = self.node.service_stub(host, "acceptor")
            if not (yield acceptor.is_installed(self.component_name, exact)):
                pkg = self.node.repository.package_bytes(self.component_name)
                yield acceptor.install(pkg)
        agent = self.node.service_stub(host, "container")
        info = InstanceInfo.from_value(
            (yield agent.create_instance(self.component_name, exact, "")))
        for port in info.ports:
            if port.kind == "facet" and port.type_id == WORKER_IFACE.repo_id:
                facet = IOR.from_string(port.peer)
                self.workers[host] = facet
                return facet
        raise VolunteerError(
            f"{self.component_name} exposes no Worker facet"
        )


class VolunteerAgent:
    """Runs on each workstation: registers with the master while idle."""

    def __init__(self, node, monitor: IdleMonitor, master_ior: IOR) -> None:
        self.node = node
        self.monitor = monitor
        self.master = node.orb.stub(master_ior, MASTER_IFACE)
        monitor.listeners.append(self._on_transition)
        node.host.on_restart.append(self._on_restart)
        if monitor.is_idle:
            self._announce(True)

    def _on_transition(self, _monitor, idle: bool) -> None:
        self._announce(idle)

    def _on_restart(self, _host) -> None:
        if self.monitor.is_idle:
            self._announce(True)

    def _announce(self, idle: bool) -> None:
        if not self.node.alive:
            return
        if idle:
            self.master.register_volunteer(self.node.host_id)
        else:
            self.master.unregister_volunteer(self.node.host_id)

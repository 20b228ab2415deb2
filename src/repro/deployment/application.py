"""Applications as bootstrap components (§2.4.4).

"When applications start running, they expose their explicit
dependencies, requiring instances of other components and connecting
them following the user stated pattern."  The :class:`Deployer` takes
an :class:`~repro.xmlmeta.descriptors.AssemblyDescriptor` and, at run
time: gathers live resource views, asks a planner for a placement,
ships packages to hosts that lack them, creates the instances through
each node's Container Agent, and wires every declared connection.

The resulting :class:`Application` handle supports teardown, migration
of its instances, and the connection re-wiring migrations require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.components.reflection import InstanceInfo
from repro.container.agent import dumps_state
from repro.container.migration import MigrationEngine
from repro.node.events import EventBroker
from repro.node.node import Node
from repro.node.resources import RESOURCE_MANAGER_IFACE, ResourceSnapshot
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.registry.view import NodeView
from repro.sim.kernel import Event
from repro.util.errors import ReproError
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    QoSSpec,
)

_SNAPSHOT = RESOURCE_MANAGER_IFACE.operations["snapshot"]


class DeploymentError(ReproError):
    """Assembly could not be deployed or wired."""


class RepairSuperseded(DeploymentError):
    """A queued repair lost its race and must not incarnate.

    Raised when the repair's fencing epoch no longer matches the
    instance's — some other recovery or migration already re-incarnated
    it while this repair was still planning.  Callers treat it as a
    clean abort, not a failure: the instance is fine, just not by this
    repair's hand.
    """


@dataclass
class Application:
    """A deployed assembly: live instances plus their wiring."""

    assembly: AssemblyDescriptor
    placement: dict[str, str]
    infos: dict[str, InstanceInfo]
    deployer: "Deployer"
    torn_down: bool = False
    #: instance name -> incarnation fencing epoch, bumped by every
    #: successful repair or migration.  A repair planned against epoch
    #: E refuses to incarnate once the instance's epoch moved past E
    #: (see :exc:`RepairSuperseded`): without the fence, a host that
    #: heals — or a competing recovery that wins — while a repair is
    #: still gathering views yields *two* live incarnations of the
    #: same instance id.
    incarnations: dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.assembly.name

    def incarnation(self, instance_name: str) -> int:
        """Current fencing epoch of one instance (0 = as deployed)."""
        return self.incarnations.get(instance_name, 0)

    def host_of(self, instance_name: str) -> str:
        return self.placement[instance_name]

    def instance_id(self, instance_name: str) -> str:
        return self.infos[instance_name].instance_id

    def facet_ior(self, instance_name: str, port: str) -> IOR:
        info = self.infos[instance_name]
        for pinfo in info.ports:
            if pinfo.name == port and pinfo.kind == "facet" and pinfo.peer:
                return IOR.from_string(pinfo.peer)
        raise DeploymentError(
            f"{instance_name} has no facet {port!r}"
        )

    def connections_to(self, instance_name: str) -> list[AssemblyConnection]:
        return [c for c in self.assembly.connections
                if c.to_instance == instance_name]

    # -- operations (return process events) -------------------------------------
    def teardown(self) -> Event:
        return self.deployer.env.process(self._teardown())

    def _teardown(self):
        for name, info in self.infos.items():
            host = self.placement[name]
            if not self.deployer.topology.host(host).alive:
                # The instance survives in the dead host's container; it
                # must be destroyed when the host comes back or it leaks
                # (and keeps its resources reserved) forever.
                self.deployer.orphans.append((host, info.instance_id))
                continue
            agent = self.deployer.coordinator.service_stub(host, "container")
            try:
                yield agent.destroy_instance(info.instance_id)
            except SystemException:
                # Host died mid-call: same orphan story as above.
                self.deployer.orphans.append((host, info.instance_id))
                continue
        self.torn_down = True
        if self in self.deployer.applications:
            self.deployer.applications.remove(self)

    def migrate(self, instance_name: str, target_host: str) -> Event:
        """Migrate one instance and re-wire connections touching it."""
        return self.deployer.env.process(
            self._migrate(instance_name, target_host))

    def _migrate(self, instance_name: str, target_host: str):
        source_host = self.placement[instance_name]
        engine = MigrationEngine(self.deployer.nodes[source_host])
        info = yield engine.migrate(self.instance_id(instance_name),
                                    target_host)
        self.infos[instance_name] = info
        self.placement[instance_name] = target_host
        self.incarnations[instance_name] = \
            self.incarnation(instance_name) + 1
        yield from self._rewire(instance_name)
        return info

    def repair(self, instance_name: str, target_host: str,
               state: Optional[dict] = None,
               fence: Optional[int] = None) -> Event:
        """Re-incarnate an instance stranded on a dead host.

        Unlike :meth:`migrate`, repair never talks to the source host —
        it is dead; whatever state was not checkpointed is lost.  The
        instance is incarnated on *target_host* under its old id with
        *state* (last checkpoint, or empty), its outgoing wiring is
        rebuilt from the assembly descriptor, and connections pointing
        at it are re-aimed at the new incarnation.  *fence*, when
        given, is the :meth:`incarnation` epoch this repair was planned
        against; the repair aborts with :exc:`RepairSuperseded` if the
        epoch moved in the meantime.
        """
        return self.deployer.env.process(
            self._repair(instance_name, target_host, state, fence))

    def _repair(self, instance_name: str, target_host: str,
                state: Optional[dict] = None,
                fence: Optional[int] = None):
        old_host = self.placement[instance_name]
        old_id = self.instance_id(instance_name)
        decl = next(i for i in self.assembly.instances
                    if i.name == instance_name)
        yield from self.deployer._ensure_installed(decl.component,
                                                   target_host)
        receptacles, subscriptions = self._outgoing_wiring(instance_name)
        agent = self.deployer.coordinator.service_stub(target_host,
                                                       "container")
        # Last fence check before the irreversible step: the install
        # above yielded, and a competing recovery may have finished in
        # the meantime.  Incarnating anyway would duplicate the
        # instance.
        if fence is not None and self.incarnation(instance_name) != fence:
            raise RepairSuperseded(
                f"repair of {instance_name!r} planned at incarnation "
                f"{fence} superseded (now "
                f"{self.incarnation(instance_name)})"
            )
        orphans = self.deployer.orphans
        try:
            value = yield agent.incarnate(
                decl.component, decl.versions.text, old_id,
                dumps_state(state or {}), receptacles, subscriptions)
        except SystemException:
            # "Maybe created": the container may have executed the
            # request and only the reply been lost.  The retry can land
            # on another host, so file the possible copy for the sweep
            # (which treats "already gone" as swept).
            orphans.append((target_host, old_id))
            raise
        # Created here for certain: a "maybe" filed by an earlier lost
        # reply on this host must not sweep the live incarnation away.
        while (target_host, old_id) in orphans:
            orphans.remove((target_host, old_id))
        self.incarnations[instance_name] = \
            self.incarnation(instance_name) + 1
        self.infos[instance_name] = InstanceInfo.from_value(value)
        self.placement[instance_name] = target_host
        if old_host != target_host:
            # The dead host still holds the stale incarnation; schedule
            # it for destruction when (if) that host returns.
            orphans.append((old_host, old_id))
        try:
            skipped = yield from self._rewire(instance_name)
        except SystemException:
            # A user host crashed mid-rewire.  The incarnation itself
            # succeeded; report every inbound connection as still
            # pending rather than failing the whole repair.
            skipped = list(self.connections_to(instance_name))
        return skipped

    def _outgoing_wiring(self, instance_name: str
                         ) -> tuple[list[dict], list[dict]]:
        """This instance's declared outgoing connections as wire pairs."""
        receptacles: list[dict] = []
        subscriptions: list[dict] = []
        for conn in self.assembly.connections:
            if conn.from_instance != instance_name:
                continue
            if conn.kind == "interface":
                ior = self.facet_ior(conn.to_instance, conn.to_port)
                receptacles.append({"name": conn.from_port,
                                    "peer": ior.to_string()})
            else:
                kind = self._event_kind(conn.to_instance, conn.to_port)
                channel = EventBroker.channel_ior_on(
                    self.placement[conn.to_instance], kind)
                subscriptions.append({"name": conn.from_port,
                                      "peer": channel.to_string()})
        return receptacles, subscriptions

    def _rewire(self, migrated: str):
        """Repair connections whose provider facets/channels moved.

        Connections whose *user* currently sits on a dead host cannot be
        repaired now; they are returned so a supervisor can retry them
        once the user's host is back (or the user itself is recovered,
        which rebuilds its outgoing wiring anyway).
        """
        coordinator = self.deployer.coordinator
        skipped: list[AssemblyConnection] = []
        for conn in self.connections_to(migrated):
            user_host = self.placement[conn.from_instance]
            if not self.deployer.topology.host(user_host).alive:
                skipped.append(conn)
                continue
            user_id = self.instance_id(conn.from_instance)
            agent = coordinator.service_stub(user_host, "container")
            if conn.kind == "interface":
                new_ior = self.facet_ior(migrated, conn.to_port)
                try:
                    yield agent.disconnect(user_id, conn.from_port)
                except SystemException:
                    pass
                yield agent.connect(user_id, conn.from_port,
                                    new_ior.to_string())
            else:
                kind = self._event_kind(migrated, conn.to_port)
                channel = EventBroker.channel_ior_on(
                    self.placement[migrated], kind)
                yield agent.subscribe(user_id, conn.from_port,
                                      channel.to_string())
        return skipped

    def _event_kind(self, instance_name: str, port: str) -> str:
        for pinfo in self.infos[instance_name].ports:
            if pinfo.name == port:
                return pinfo.type_id
        raise DeploymentError(
            f"{instance_name} has no event port {port!r}"
        )


class Deployer:
    """Run-time deployment driver over a node population."""

    def __init__(self, nodes: dict[str, Node], planner,
                 coordinator_host: Optional[str] = None,
                 gate=None) -> None:
        if not nodes:
            raise DeploymentError("no nodes")
        self.nodes = nodes
        self.planner = planner
        #: optional static-verification gate (duck-typed; see
        #: repro.analysis.gate.DeploymentGate).  When set, assemblies
        #: failing verification are rejected before any instance exists.
        self.gate = gate
        host = coordinator_host or next(iter(nodes))
        self.coordinator = nodes[host]
        self.env = self.coordinator.env
        self.topology = self.coordinator.network.topology
        self.applications: list[Application] = []
        #: (host, instance_id) pairs stranded on dead hosts by teardown
        #: or repair; the ApplicationSupervisor destroys them when the
        #: host returns.
        self.orphans: list[tuple[str, str]] = []

    # -- views --------------------------------------------------------------
    def gather_views(self) -> Event:
        """Live resource snapshots from every reachable node."""
        return self.env.process(self._gather_views())

    def _gather_views(self):
        views: list[ResourceSnapshot] = []
        for host in self.nodes:
            if not self.topology.host(host).alive:
                continue
            ior = Node.service_ior(host, "resources")
            try:
                value = yield self.coordinator.orb.invoke(
                    ior, _SNAPSHOT, (), timeout=2.0, meter="deploy.views")
            except SystemException:
                continue
            views.append(ResourceSnapshot.from_value(value))
        return views

    # -- component sourcing ------------------------------------------------------
    def _source_host(self, component: str) -> str:
        for host, node in self.nodes.items():
            if (self.topology.host(host).alive
                    and node.repository.is_installed(component)):
                return host
        raise DeploymentError(
            f"component {component!r} is installed nowhere"
        )

    def _qos_of(self, assembly: AssemblyDescriptor) -> dict[str, QoSSpec]:
        out: dict[str, QoSSpec] = {}
        for inst in assembly.instances:
            if inst.component in out:
                continue
            source = self.nodes[self._source_host(inst.component)]
            cls = source.repository.lookup(inst.component, inst.versions)
            out[inst.component] = cls.component_type.qos
        return out

    # -- deployment ------------------------------------------------------------------
    def deploy(self, assembly: AssemblyDescriptor) -> Event:
        """Deploy *assembly*; yields the :class:`Application` handle."""
        return self.env.process(self._deploy(assembly))

    def _deploy(self, assembly: AssemblyDescriptor):
        if self.gate is not None:
            # Static verification first: a rejected assembly must not
            # touch the network — no views, no plan, no incarnations.
            self.gate.check(assembly, self.nodes,
                            metrics=self.coordinator.metrics)
        views = yield from self._gather_views()
        qos_of = self._qos_of(assembly)
        placement = self.planner.plan(assembly, views, qos_of)

        infos: dict[str, InstanceInfo] = {}
        for inst in assembly.instances:
            host = placement[inst.name]
            yield from self._ensure_installed(inst.component, host)
            agent = self.coordinator.service_stub(host, "container")
            value = yield agent.create_instance(
                inst.component, inst.versions.text,
                f"{assembly.name}.{inst.name}")
            infos[inst.name] = InstanceInfo.from_value(value)

        app = Application(assembly=assembly, placement=placement,
                          infos=infos, deployer=self)
        yield from self._wire(app)
        self.applications.append(app)
        self.coordinator.metrics.counter("deploy.applications").inc()
        return app

    def _ensure_installed(self, component: str, host: str):
        node = self.nodes[host]
        if node.repository.is_installed(component):
            return
        source = self._source_host(component)
        source_acceptor = self.coordinator.service_stub(source, "acceptor")
        pkg = yield source_acceptor.fetch(component, "")
        target_acceptor = self.coordinator.service_stub(host, "acceptor")
        installed = yield target_acceptor.is_installed(component, "")
        if not installed:
            yield target_acceptor.install(pkg)
        self.coordinator.metrics.counter("deploy.packages_shipped").inc()

    def _wire(self, app: Application):
        for conn in app.assembly.connections:
            user_host = app.placement[conn.from_instance]
            user_id = app.instance_id(conn.from_instance)
            agent = self.coordinator.service_stub(user_host, "container")
            if conn.kind == "interface":
                provider = app.facet_ior(conn.to_instance, conn.to_port)
                yield agent.connect(user_id, conn.from_port,
                                    provider.to_string())
            else:
                kind = app._event_kind(conn.to_instance, conn.to_port)
                sink_kind = app._event_kind(conn.from_instance,
                                            conn.from_port)
                if kind != sink_kind:
                    raise DeploymentError(
                        f"event connection {conn.from_instance}."
                        f"{conn.from_port} <- {conn.to_instance}."
                        f"{conn.to_port}: kind mismatch "
                        f"({sink_kind!r} vs {kind!r})"
                    )
                channel = EventBroker.channel_ior_on(
                    app.placement[conn.to_instance], kind)
                yield agent.subscribe(user_id, conn.from_port,
                                      channel.to_string())

"""Component instance replication (§2.1.1).

A component descriptor declares whether its instances "can be
replicated, either because they are stateless or they know how [to]
interact with the framework to maintain replica consistency".  The
replica manager implements both flavours:

- ``stateless``: N independent instances; clients fail over in member
  order (:meth:`ReplicaGroup.select`).
- ``coordinated``: one primary whose externalized state is pushed to
  the backups after updates (framework-mediated consistency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.components.reflection import InstanceInfo
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.sim.kernel import Event
from repro.util.errors import ReproError


class ReplicationError(ReproError):
    """Replication refused (non-replicable component) or failed."""


@dataclass
class ReplicaMember:
    host: str
    instance_id: str
    facet_ior: Optional[IOR]
    #: Promotion epoch whose state this member is known to carry: the
    #: group's epoch when the member was last primary or last received
    #: a sync from the primary.  A member that crashed and came back
    #: keeps its old stamp, which is what fences it out.
    epoch: int = 0


@dataclass
class ReplicaGroup:
    """The members of one replicated component."""

    component: str
    facet_repo_id: str
    mode: str                       # "stateless" | "coordinated"
    members: list[ReplicaMember] = field(default_factory=list)
    #: Monotonic fencing number, bumped on every primary promotion.
    epoch: int = 0
    #: instance_id of the current fenced primary (coordinated mode).
    primary_id: Optional[str] = None

    def alive_members(self, topology) -> list[ReplicaMember]:
        return [m for m in self.members
                if topology.host(m.host).alive]

    @property
    def primary(self) -> ReplicaMember:
        if not self.members:
            raise ReplicationError("empty replica group")
        for member in self.members:
            if member.instance_id == self.primary_id:
                return member
        return self.members[0]

    def promote(self, member: ReplicaMember) -> None:
        """Make *member* the fenced primary under a fresh epoch."""
        self.epoch += 1
        member.epoch = self.epoch
        self.primary_id = member.instance_id

    def select_primary(self, topology) -> ReplicaMember:
        """The fenced primary for a coordinated sync.

        The recorded primary wins while it is alive.  When it is dead
        (or nothing was ever recorded) the live member carrying the
        highest epoch is promoted — never merely the first member that
        happens to be alive, so a restarted ex-primary with a stale
        epoch cannot reclaim the role and push old state.
        """
        alive = self.alive_members(topology)
        if not alive:
            raise ReplicationError(
                f"no live replicas of {self.component}"
            )
        for member in alive:
            if member.instance_id == self.primary_id:
                return member
        best = max(alive, key=lambda m: m.epoch)
        self.promote(best)
        return best


class ReplicaManager:
    """Creates and maintains replica groups from one node."""

    def __init__(self, node) -> None:
        self.node = node

    def create_group(self, component_name: str, hosts: list[str]) -> Event:
        """Instantiate *component_name* on every host in *hosts*.

        Returns a process event yielding the :class:`ReplicaGroup`,
        served from the component's first facet.  Package bytes are
        shipped to hosts lacking the component.
        """
        return self.node.env.process(
            self._create_group(component_name, hosts))

    def _create_group(self, component_name: str, hosts: list[str]):
        node = self.node
        cls = node.repository.lookup(component_name)
        if not cls.replicable:
            raise ReplicationError(
                f"component {component_name!r} declares replication=none"
            )
        provides = cls.component_type.provides
        if not provides:
            raise ReplicationError(
                f"component {component_name!r} has no facets to serve from"
            )
        port_decl = provides[0]

        group = ReplicaGroup(component=component_name,
                             facet_repo_id=port_decl.repo_id,
                             mode=cls.software.replication)
        exact = f"=={cls.version}"
        for host in hosts:
            if host != node.host_id:
                acceptor = node.service_stub(host, "acceptor")
                installed = yield acceptor.is_installed(component_name, exact)
                if not installed:
                    yield acceptor.install(
                        node.repository.package_bytes(component_name))
            agent = node.service_stub(host, "container")
            info_value = yield agent.create_instance(component_name,
                                                     exact, "")
            info = InstanceInfo.from_value(info_value)
            facet_ior = None
            for port in info.ports:
                if port.name == port_decl.name and port.peer:
                    facet_ior = IOR.from_string(port.peer)
            group.members.append(ReplicaMember(
                host=host, instance_id=info.instance_id,
                facet_ior=facet_ior))
        if group.members:
            group.primary_id = group.members[0].instance_id
        node.metrics.counter("replication.groups").inc()
        return group

    def sync(self, group: ReplicaGroup) -> Event:
        """Push the primary's state to all backups (coordinated mode)."""
        return self.node.env.process(self._sync(group))

    def _sync(self, group: ReplicaGroup):
        if group.mode != "coordinated":
            raise ReplicationError(
                f"group {group.component} is {group.mode}; sync applies "
                "to coordinated replication"
            )
        node = self.node
        epoch_before = group.epoch
        primary = group.select_primary(node.network.topology)
        if group.epoch != epoch_before:
            node.metrics.counter("replication.promotions").inc()
        agent = node.service_stub(primary.host, "container")
        state = yield agent.get_state(primary.instance_id)
        synced = 0
        for member in group.members:
            if member is primary:
                continue
            if not node.network.topology.host(member.host).alive:
                continue
            backup = node.service_stub(member.host, "container")
            try:
                yield backup.set_state(member.instance_id, state)
                # The backup now carries the primary's state generation,
                # so it is a legitimate promotion candidate at this epoch.
                member.epoch = group.epoch
                synced += 1
            except SystemException:
                continue  # unreachable backup; next sync will catch up
        node.metrics.counter("replication.syncs").inc()
        return synced

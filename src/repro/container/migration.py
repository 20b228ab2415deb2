"""Component instance migration (§2.2, §2.4.3).

"The container can ask the component instance (via local agreed
interfaces) to resume its execution returning its internal state.
Then, the component can be migrated into another host (in its binary
form), instantiated, and then given the previous instance state to
continue its execution."

The engine performs exactly those steps, over the wire:

1. passivate the instance and capture its externalized state;
2. ensure the component's package is installed at the target —
   :func:`~repro.container.agent.ship_package` sends the package bytes
   through the target's Component Acceptor if not (this is the
   expensive part on slow links);
3. evict the local shell (frees this node's resources);
4. incarnate at the target with the captured state and port wiring.

On incarnation failure the instance is restored locally (rollback), so
a refused migration never loses the instance.
"""

from __future__ import annotations

from repro.container.agent import dumps_state, ship_package
from repro.container.instance import ComponentInstance, InstanceState
from repro.orb.exceptions import SystemException, UserException
from repro.components.reflection import InstanceInfo
from repro.sim.kernel import Event
from repro.util.errors import ReproError
from repro.xmlmeta.versions import VersionRange


class MigrationError(ReproError):
    """Migration refused (immobile component, bad state) or failed."""


class MigrationEngine:
    """Drives migrations out of one node."""

    def __init__(self, node) -> None:
        self.node = node

    def migrate(self, instance_id: str, target_host: str) -> Event:
        """Migrate *instance_id* to *target_host*.

        Returns a process event yielding the new
        :class:`~repro.components.reflection.InstanceInfo` at the target.
        """
        return self.node.env.process(self._migrate(instance_id, target_host))

    def _migrate(self, instance_id: str, target_host: str):
        node = self.node
        container = node.container
        instance = container.find_instance(instance_id)
        if instance is None:
            raise MigrationError(f"no instance {instance_id!r}")
        if target_host == node.host_id:
            raise MigrationError("target is the current host")
        cls = instance.component_class
        if not cls.is_mobile:
            raise MigrationError(
                f"component {cls.name!r} is pinned (mobility=pinned)"
            )
        instance.require_state(InstanceState.ACTIVE)
        node.metrics.counter("migration.started").inc()

        # 1. Passivate and externalize.
        instance.executor.passivate()
        instance.state = InstanceState.PASSIVE
        instance.interrupt_processes("migrating")
        state = instance.executor.get_state()
        wiring = _capture_wiring(instance)

        # 2. Ensure the binary exists at the target.  A target crash in
        # this window must not strand the instance passivated on the
        # source: reactivate it locally and refuse the migration.
        exact = f"=={cls.version}"
        try:
            shipped = yield from ship_package(node, target_host, cls)
        except SystemException as exc:
            instance.executor.activate()
            instance.state = InstanceState.ACTIVE
            node.metrics.counter("migration.rollbacks").inc()
            raise MigrationError(
                f"target {target_host} unreachable before eviction: {exc}"
            ) from exc

        if shipped:
            node.metrics.counter("migration.package_bytes").inc(shipped)

        # 3. Evict the local shell.
        container._evict(instance)

        # 4. Incarnate remotely; roll back on refusal.
        agent = node.service_stub(target_host, "container")
        try:
            info_value = yield agent.incarnate(
                cls.name, exact, instance_id, dumps_state(state),
                wiring["receptacles"], wiring["subscriptions"])
        except (SystemException, UserException) as exc:
            node.metrics.counter("migration.rollbacks").inc()
            node.container.incarnate(
                cls.name, VersionRange(exact), instance_id, state,
                wiring["receptacles"], wiring["subscriptions"])
            raise MigrationError(
                f"target {target_host} refused {instance_id}: {exc}"
            ) from exc
        node.metrics.counter("migration.completed").inc()
        return InstanceInfo.from_value(info_value)


def _capture_wiring(instance: ComponentInstance) -> dict:
    """Receptacle peers and sink subscriptions, as wire-able pairs."""
    receptacles = []
    for port in instance.ports.receptacles():
        receptacles.append({
            "name": port.name,
            "peer": port.peer.to_string() if port.peer else "",
        })
    subscriptions = []
    for port in instance.ports.by_kind("event-sink"):
        for channel in port.subscriptions:
            subscriptions.append({
                "name": port.name,
                "peer": channel.to_string(),
            })
    return {"receptacles": receptacles, "subscriptions": subscriptions}

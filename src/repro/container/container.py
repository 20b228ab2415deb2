"""The Container: instance lifecycle, port wiring, QoS admission.

One container runs per node.  It "leverages the component
implementation of dealing with the non-functional aspects" (§2.2):
creation builds the instance's ports from its descriptor, activates
facet servants in the node's ORB, opens event channels, and reserves
resources; destruction unwinds all of it.  Lifecycle transitions are
reported to listeners so the node's Component Registry (and through it
the Distributed Registry) reflects reality.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.components.factory import ComponentFactoryServant
from repro.components.model import ComponentClass
from repro.components.ports import (
    EventSinkPort,
    EventSourcePort,
    FacetPort,
    ReceptaclePort,
)
from repro.container.context import ContainerContext
from repro.container.instance import ComponentInstance, InstanceState
from repro.orb.cdr import Any as CdrAny
from repro.orb.ior import IOR
from repro.orb.services.events import (
    EVENT_CHANNEL_IFACE,
    CallbackPushConsumer,
)
from repro.util.errors import ReproError
from repro.xmlmeta.versions import VersionRange

#: ORB adapter names the container uses on its node.
COMPONENT_ADAPTER = "components"


class ContainerError(ReproError):
    """Instance management failure."""


class Container:
    """Hosts component instances on one node."""

    def __init__(self, node) -> None:
        """*node* provides: env, orb, host_id, repository, resources,
        events (EventBroker), ids (IdGenerator), request_component()."""
        self.node = node
        self.env = node.env
        self.orb = node.orb
        self.host_id = node.host_id
        self._instances: dict[str, ComponentInstance] = {}
        self._factories: dict[str, ComponentFactoryServant] = {}
        #: observers called with ("created"|"destroyed"|"migrated-out"|
        #: "changed", ComponentInstance)
        self.listeners: list[Callable[[str, ComponentInstance], None]] = []

    @property
    def poa(self):
        return self.orb.adapter(COMPONENT_ADAPTER)

    # -- factories -------------------------------------------------------------
    def factory_for(self, component_name: str) -> ComponentFactoryServant:
        """The (lazily created) factory servant for a component type."""
        servant = self._factories.get(component_name)
        if servant is None:
            if not self.node.repository.is_installed(component_name):
                raise ContainerError(
                    f"component {component_name!r} not installed on "
                    f"{self.host_id}"
                )
            servant = ComponentFactoryServant(self, component_name)
            self.orb.adapter("factories").activate(
                servant, key=component_name)
            self._factories[component_name] = servant
        return servant

    def factory_ior(self, component_name: str) -> IOR:
        self.factory_for(component_name)
        return self.orb.adapter("factories").ior_for(component_name)

    # -- creation ----------------------------------------------------------------
    def create_instance(self, component_name: str,
                        requested_name: Optional[str] = None,
                        versions: VersionRange = VersionRange(""),
                        initial_state: Optional[dict] = None,
                        ) -> ComponentInstance:
        """Create, wire and activate an instance of *component_name*."""
        cls = self.node.repository.lookup(component_name, versions)
        self.node.resources.reserve(cls.component_type.qos)
        try:
            instance = self._build_instance(cls, requested_name,
                                            initial_state)
        except Exception:
            self.node.resources.release(cls.component_type.qos)
            raise
        self._instances[instance.instance_id] = instance
        self._notify("created", instance)
        return instance

    def incarnate(self, component_name: str, versions: VersionRange,
                  instance_id: str, state: dict,
                  receptacles: list[dict],
                  subscriptions: list[dict]) -> ComponentInstance:
        """Re-create a migrated instance under its old id with *state*,
        wired from ``{"name", "peer"}`` pairs (an empty peer stays
        unwired)."""
        instance = self.create_instance(
            component_name, requested_name=instance_id,
            versions=versions, initial_state=state)
        for wiring in receptacles:
            if wiring["peer"]:
                self.connect(instance_id, wiring["name"],
                             IOR.from_string(wiring["peer"]))
        for wiring in subscriptions:
            if wiring["peer"]:
                self.subscribe_sink(instance, wiring["name"],
                                    IOR.from_string(wiring["peer"]))
        return instance

    def _build_instance(self, cls: ComponentClass,
                        requested_name: Optional[str],
                        initial_state: Optional[dict]) -> ComponentInstance:
        instance_id = requested_name or self.node.ids.next(
            f"{cls.name}.{self.host_id}")
        if instance_id in self._instances:
            raise ContainerError(f"instance id {instance_id!r} taken")
        executor = cls.new_executor()
        instance = ComponentInstance(instance_id, cls, executor,
                                     self.host_id)

        ctype = cls.component_type
        # Facets: executor supplies servants; container activates them.
        for decl in ctype.provides:
            servant = executor.create_facet(decl.name)
            ior = self.poa.activate(
                servant, key=f"{instance_id}.{decl.name}")
            instance.ports.add(FacetPort(decl.name, decl.repo_id, servant,
                                         ior))
        # Receptacles: empty until connected.
        for decl in ctype.uses:
            instance.ports.add(ReceptaclePort(decl.name, decl.repo_id,
                                              optional=decl.optional))
        # Event sources: the framework opens a push channel per kind.
        for decl in ctype.emits:
            channel = self.node.events.channel_ior(decl.event_kind)
            instance.ports.add(EventSourcePort(decl.name, decl.event_kind,
                                               channel))
        # Event sinks: a consumer servant, subscribed to the local
        # channel of that kind by default.
        for decl in ctype.consumes:
            port = EventSinkPort(decl.name, decl.event_kind)
            consumer = CallbackPushConsumer(
                lambda data, name=decl.name: executor.on_event(name, data))
            port.consumer_ior = self.poa.activate(
                consumer, key=f"{instance_id}.{decl.name}")
            instance.ports.add(port)
            self.subscribe_sink(instance, decl.name,
                                self.node.events.channel_ior(decl.event_kind))

        # Reflect port mutations out to the registry.
        instance.ports.listeners.append(
            lambda _action, _port: self._notify("changed", instance))

        executor.set_context(ContainerContext(self, instance))
        if initial_state is not None:
            executor.set_state(initial_state)
        executor.activate()
        instance.state = InstanceState.ACTIVE
        return instance

    # -- destruction ---------------------------------------------------------------
    def destroy_instance(self, instance_id: str) -> None:
        instance = self._require(instance_id)
        instance.require_state(InstanceState.ACTIVE, InstanceState.PASSIVE,
                               InstanceState.CREATED)
        instance.interrupt_processes("destroyed")
        instance.executor.remove()
        self._teardown_ports(instance)
        self.node.resources.release(instance.qos)
        instance.state = InstanceState.DESTROYED
        del self._instances[instance_id]
        factory = self._factories.get(instance.component_name)
        if factory is not None:
            factory.forget(instance_id)
        self._notify("destroyed", instance)

    def _teardown_ports(self, instance: ComponentInstance) -> None:
        for name in list(instance.ports.names()):
            port = instance.ports.get(name)
            if isinstance(port, (FacetPort, EventSinkPort)):
                key = f"{instance.instance_id}.{name}"
                if self.poa.is_active(key):
                    self.poa.deactivate(key)
            if isinstance(port, EventSinkPort):
                self._unsubscribe_all(port)

    # -- wiring ---------------------------------------------------------------------
    def connect(self, instance_id: str, receptacle_name: str,
                peer: IOR) -> None:
        instance = self._require(instance_id)
        instance.ports.receptacle(receptacle_name).connect(peer)
        instance.ports.changed(receptacle_name)
        self._notify("changed", instance)

    def disconnect(self, instance_id: str, receptacle_name: str) -> IOR:
        instance = self._require(instance_id)
        peer = instance.ports.receptacle(receptacle_name).disconnect()
        instance.ports.changed(receptacle_name)
        self._notify("changed", instance)
        return peer

    def subscribe_sink(self, instance: ComponentInstance, port_name: str,
                       channel: IOR) -> None:
        """Subscribe an event sink to a channel (local or remote)."""
        port = instance.ports.event_sink(port_name)
        if channel in port.subscriptions:
            return
        stub = self.orb.stub(channel, EVENT_CHANNEL_IFACE)
        stub.connect_push_consumer(port.consumer_ior)
        port.subscriptions.append(channel)

    def _unsubscribe_all(self, port: EventSinkPort) -> None:
        for channel in port.subscriptions:
            stub = self.orb.stub(channel, EVENT_CHANNEL_IFACE)
            stub.disconnect_push_consumer(port.consumer_ior)
        port.subscriptions = []

    def push_event(self, source: EventSourcePort, payload: CdrAny) -> None:
        """Emit through a source port's channel (oneway)."""
        stub = self.orb.stub(source.channel, EVENT_CHANNEL_IFACE)
        stub.push(payload)

    # -- queries ----------------------------------------------------------------------
    def find_instance(self, instance_id: str) -> Optional[ComponentInstance]:
        return self._instances.get(instance_id)

    def _require(self, instance_id: str) -> ComponentInstance:
        instance = self._instances.get(instance_id)
        if instance is None:
            raise ContainerError(f"no instance {instance_id!r}")
        return instance

    def instances(self) -> list[ComponentInstance]:
        return list(self._instances.values())

    def instance_infos(self) -> list:
        return [inst.info() for inst in self._instances.values()]

    def __len__(self) -> int:
        return len(self._instances)

    # -- internal -----------------------------------------------------------------------
    def _notify(self, action: str, instance: ComponentInstance) -> None:
        for listener in list(self.listeners):
            listener(action, instance)

    # Used by migration: remove the local shell without executor.remove().
    def _evict(self, instance: ComponentInstance) -> None:
        instance.interrupt_processes("migrating")
        self._teardown_ports(instance)
        self.node.resources.release(instance.qos)
        instance.state = InstanceState.MIGRATING
        del self._instances[instance.instance_id]
        factory = self._factories.get(instance.component_name)
        if factory is not None:
            factory.forget(instance.instance_id)
        self._notify("migrated-out", instance)

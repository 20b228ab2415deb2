"""The Node: everything Figure 1 shows, assembled on one host.

A Node owns the host's ORB, Component Repository, Resource Manager,
Container, event broker, and the servants that expose them: the
Component Registry, Component Acceptor, Resource Manager and Container
Agent, all activated in the well-known ``node`` adapter so any peer can
address them knowing only the host id.
"""

from __future__ import annotations

from typing import Optional

from repro.container.agent import (
    CONTAINER_AGENT_IFACE,
    ContainerAgentServant,
)
from repro.container.container import Container
from repro.node.acceptor import (
    COMPONENT_ACCEPTOR_IFACE,
    ComponentAcceptorServant,
)
from repro.node.events import EventBroker
from repro.node.registry import (
    COMPONENT_REGISTRY_IFACE,
    ComponentRegistryServant,
    NodeRegistry,
)
from repro.node.repository import ComponentRepository, NotInstalledError
from repro.node.resources import (
    RESOURCE_MANAGER_IFACE,
    ResourceManager,
    ResourceManagerServant,
)
from repro.orb.core import ORB, InterfaceDef, Stub
from repro.orb.exceptions import TRANSIENT
from repro.orb.ior import IOR
from repro.packaging.package import ComponentPackage
from repro.packaging.signature import VendorKeyRegistry
from repro.sim.kernel import Environment, Event
from repro.sim.network import Network
from repro.util.errors import ConfigurationError
from repro.util.ids import IdGenerator

NODE_ADAPTER = "node"

#: service key -> interface, for well-known IOR construction.
NODE_SERVICES: dict[str, InterfaceDef] = {
    "registry": COMPONENT_REGISTRY_IFACE,
    "resources": RESOURCE_MANAGER_IFACE,
    "acceptor": COMPONENT_ACCEPTOR_IFACE,
    "container": CONTAINER_AGENT_IFACE,
}


class LocalResolver:
    """Default dependency resolution: this node only.

    The Distributed Registry replaces a node's resolver with a
    network-wide one; standalone nodes resolve against their own
    repository and container.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node

    def resolve(self, repo_id: str, qos=None) -> Event:
        event = self.node.env.event()
        # Prefer an already-running provider.
        running = self.node.registry.running_providers(repo_id)
        if running:
            event.succeed(IOR.from_string(running[0]))
            return event
        providers = self.node.repository.providers_of(repo_id)
        if not providers:
            event.fail(TRANSIENT(
                f"no provider for {repo_id!r} on {self.node.host_id}"
            )).defused()
            return event
        cls = providers[0]
        instance = self.node.container.create_instance(cls.name)
        for facet in instance.ports.facets():
            if facet.repo_id == repo_id:
                event.succeed(facet.ior)
                return event
        event.fail(TRANSIENT(
            f"provider {cls.name} exposes no facet of {repo_id!r}"
        )).defused()
        return event


class Node:
    """The per-host CORBA-LC runtime."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        host_id: str,
        vendor_keys: Optional[VendorKeyRegistry] = None,
        require_signature: bool = False,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.host_id = host_id
        self.host = network.topology.host(host_id)
        self.metrics = network.metrics
        self.ids = IdGenerator()

        self.orb = ORB(env, network, host_id,
                       default_timeout=default_timeout)
        self.resources = ResourceManager(env, self.host)
        self.orb.dispatch_listeners.append(self.resources.charge)
        self.repository = ComponentRepository(
            self.host.profile, vendor_keys=vendor_keys,
            require_signature=require_signature)
        self.events = EventBroker(self)
        self.container = Container(self)
        self.registry = NodeRegistry(self)
        #: dependency-resolution strategy; the Distributed Registry
        #: swaps in a network-wide resolver (§2.4.3).
        self.resolver = LocalResolver(self)

        poa = self.orb.adapter(NODE_ADAPTER)
        poa.activate(ComponentRegistryServant(self.registry),
                     key="registry")
        poa.activate(ResourceManagerServant(self.resources),
                     key="resources")
        poa.activate(ComponentAcceptorServant(self), key="acceptor")
        poa.activate(ContainerAgentServant(self), key="container")

    # -- well-known service addressing ------------------------------------
    @staticmethod
    def service_ior(host_id: str, service: str) -> IOR:
        """IOR of a node service on any host, without a lookup."""
        try:
            iface = NODE_SERVICES[service]
        except KeyError:
            raise ConfigurationError(
                f"unknown node service {service!r}; "
                f"one of {sorted(NODE_SERVICES)}"
            ) from None
        return IOR(iface.repo_id, host_id, NODE_ADAPTER, service)

    def service_stub(self, host_id: str, service: str) -> Stub:
        """Typed stub for a (possibly remote) node service."""
        ior = self.service_ior(host_id, service)
        return self.orb.stub(ior, NODE_SERVICES[service])

    # -- local conveniences ------------------------------------------------------
    def install_package(self, package: "ComponentPackage | bytes"):
        """Install a package held locally (no network transfer)."""
        if isinstance(package, (bytes, bytearray)):
            package = ComponentPackage(bytes(package))
        return self.repository.install(package)

    def request_component(self, repo_id: str, qos=None) -> Event:
        """Resolve a component dependency (possibly network-wide)."""
        self.metrics.counter("node.component_requests").inc()
        return self.resolver.resolve(repo_id, qos=qos)

    @property
    def alive(self) -> bool:
        return self.host.alive

    def __repr__(self) -> str:
        return (f"<Node {self.host_id} [{self.host.profile.name}] "
                f"{len(self.repository)} components, "
                f"{len(self.container)} instances>")

"""Applications as bootstrap components (§2.4.4, taken literally).

"In CORBA-LC, applications are just special components.  They are
special because (1) they encapsulate the explicit rules to connect
together certain components and their instances ...  applications can
be considered as bootstrap components: when applications start running,
they expose their explicit dependencies, requiring instances of other
components and connecting them following the user stated pattern."

:func:`application_package` wraps an
:class:`~repro.xmlmeta.descriptors.AssemblyDescriptor` into an
installable component whose executor, on activation, deploys the
assembly — using only the node it happens to run on (remote registry /
acceptor / container-agent calls through :class:`NetworkDeployer`).
Install the package anywhere, create one instance, and the application
materializes; destroy the instance and it tears down.
"""

from __future__ import annotations

from repro.components.executor import ComponentExecutor
from repro.components.reflection import ComponentInfo
from repro.deployment.application import Application, Deployer
from repro.deployment.planner import RuntimePlanner
from repro.node.resources import ResourceSnapshot
from repro.orb.exceptions import SystemException
from repro.packaging.binaries import GLOBAL_BINARIES
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.kernel import Interrupt
from repro.util.errors import ReproError
from repro.xmlmeta.descriptors import (
    AssemblyDescriptor,
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

ASSEMBLY_MEMBER = "META-INF/assembly.xml"


class BootstrapError(ReproError):
    """The bootstrap component could not deploy its assembly."""


class NetworkDeployer(Deployer):
    """A Deployer that lives on ONE node and sees peers only through
    their remote Node services.

    The orchestrator-side :class:`Deployer` peeks into local
    ``Node`` objects for component metadata; this subclass obtains the
    same information over the wire (registry ``installed()`` carries
    each component's QoS and the acceptor serves packages), so it can
    run inside a component instance — which is exactly what a bootstrap
    application is.
    """

    def __init__(self, node, host_ids: list[str]) -> None:
        self.node = node
        self.host_ids = [h for h in host_ids]
        self.planner = RuntimePlanner()
        self.gate = None
        self.coordinator = node
        self.env = node.env
        self.topology = node.network.topology
        self.nodes = {}           # intentionally empty: remote-only
        self.applications: list[Application] = []
        self._component_cache: dict[str, tuple[str, ComponentInfo]] = {}

    # -- remote discovery ---------------------------------------------------
    def _gather_views(self):
        views: list[ResourceSnapshot] = []
        from repro.node.node import Node
        from repro.node.resources import RESOURCE_MANAGER_IFACE
        snapshot_op = RESOURCE_MANAGER_IFACE.operations["snapshot"]
        for host in self.host_ids:
            if not self.topology.host(host).alive:
                continue
            ior = Node.service_ior(host, "resources")
            try:
                value = yield self.node.orb.invoke(
                    ior, snapshot_op, (), timeout=2.0,
                    meter="deploy.views")
            except SystemException:
                continue
            views.append(ResourceSnapshot.from_value(value))
        return views

    def _locate(self, component: str):
        """Find (host, ComponentInfo) for *component* over the wire."""
        cached = self._component_cache.get(component)
        if cached is not None and self.topology.host(cached[0]).alive:
            return cached
        from repro.node.registry import COMPONENT_REGISTRY_IFACE
        installed_op = COMPONENT_REGISTRY_IFACE.operations["installed"]
        from repro.node.node import Node
        for host in self.host_ids:
            if not self.topology.host(host).alive:
                continue
            ior = Node.service_ior(host, "registry")
            try:
                infos = yield self.node.orb.invoke(
                    ior, installed_op, (), timeout=2.0,
                    meter="deploy.locate")
            except SystemException:
                continue
            for value in infos:
                info = ComponentInfo.from_value(value)
                if info.name == component:
                    self._component_cache[component] = (host, info)
                    return (host, info)
        raise BootstrapError(
            f"component {component!r} is installed nowhere reachable"
        )

    # -- overrides of the local-introspection paths ------------------------------
    def _deploy(self, assembly: AssemblyDescriptor):
        # Resolve sources and QoS remotely before the base pipeline.
        self._sources: dict[str, str] = {}
        self._qos: dict[str, QoSSpec] = {}
        for inst in assembly.instances:
            if inst.component in self._qos:
                continue
            host, info = yield from self._locate(inst.component)
            self._sources[inst.component] = host
            self._qos[inst.component] = QoSSpec(
                cpu_units=info.qos_cpu, memory_mb=info.qos_memory,
                bandwidth_bps=info.qos_bandwidth)
        result = yield from super()._deploy(assembly)
        return result

    def _qos_of(self, assembly: AssemblyDescriptor) -> dict[str, QoSSpec]:
        return dict(self._qos)

    def _source_host(self, component: str) -> str:
        try:
            return self._sources[component]
        except (AttributeError, KeyError):
            raise BootstrapError(
                f"no known source for {component!r}"
            ) from None

    def _ensure_installed(self, component: str, host: str):
        """Fully remote variant: probe the target's acceptor, ship the
        package from the discovered source if needed."""
        target = self.node.service_stub(host, "acceptor")
        if (yield target.is_installed(component, "")):
            return
        source = self._source_host(component)
        pkg = yield self.node.service_stub(source, "acceptor").fetch(
            component, "")
        if not (yield target.is_installed(component, "")):
            yield target.install(pkg)
        self.node.metrics.counter("deploy.packages_shipped").inc()


class BootstrapExecutor(ComponentExecutor):
    """Executor of an application component.

    On activation it parses the assembly carried in its own package and
    deploys it through a :class:`NetworkDeployer`; on removal it tears
    the application down.  The node object and peer list are injected
    by the container context plus the factory configuration below.
    """

    #: set per generated subclass by :func:`application_package`.
    ASSEMBLY_XML: str = ""

    def __init__(self) -> None:
        super().__init__()
        self.application = None
        self.deploy_error = None

    def on_activate(self) -> None:
        self.context.spawn(self._bootstrap())

    def _bootstrap(self):
        try:
            node = self.context._container.node  # agreed local interface
            assembly = AssemblyDescriptor.from_xml(self.ASSEMBLY_XML)
            host_ids = node.network.topology.host_ids()
            deployer = NetworkDeployer(node, host_ids)
            self.application = yield deployer.deploy(assembly)
        except Interrupt:
            return
        except Exception as exc:
            self.deploy_error = exc

    def on_remove(self) -> None:
        if self.application is not None and not self.application.torn_down:
            # fire-and-forget teardown; the process outlives the
            # bootstrap instance itself
            self.application.teardown()


def application_package(assembly: AssemblyDescriptor) -> ComponentPackage:
    """Package *assembly* as an installable bootstrap component named
    ``app-<assembly name>``."""
    comp_name = f"app-{assembly.name}"
    xml = assembly.to_xml()

    executor_cls = type(
        f"Bootstrap_{assembly.name}", (BootstrapExecutor,),
        {"ASSEMBLY_XML": xml},
    )
    entry = f"bootstrap.{comp_name}"
    GLOBAL_BINARIES.register(entry, executor_cls, replace=True)

    soft = SoftwareDescriptor(
        name=comp_name, version=Version.parse("1.0.0"), vendor="app",
        abstract=f"Bootstrap component for application {assembly.name!r}.",
        mobility="mobile", replication="none",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/bootstrap")],
    )
    comp = ComponentTypeDescriptor(
        name=comp_name,
        qos=QoSSpec(cpu_units=1.0, memory_mb=1.0),
        lifecycle="process",
    )
    builder = PackageBuilder(soft, comp)
    builder.add_binary("bin/any/bootstrap", xml.encode())
    # the assembly also travels as readable metadata
    builder.add_idl("assembly-note",
                    "// assembly is embedded in the binary payload")
    return ComponentPackage(builder.build())

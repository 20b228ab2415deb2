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
assembly through a :class:`~repro.deployment.application.Deployer`
that holds only the node it happens to run on: every other host is
reached through its registry, acceptor and container agent.  Install
the package anywhere, create one instance, and the application
materializes; destroy the instance and it tears down.
"""

from __future__ import annotations

from repro.components.executor import ComponentExecutor
from repro.deployment.application import Deployer
from repro.deployment.planner import RuntimePlanner
from repro.packaging.binaries import GLOBAL_BINARIES
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.kernel import Interrupt
from repro.xmlmeta.descriptors import (
    AssemblyDescriptor,
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version


class BootstrapExecutor(ComponentExecutor):
    """Executor of an application component.

    On activation it parses the assembly carried in its own package and
    deploys it onto every host of the topology through a
    :class:`Deployer` holding only its own node; on removal it tears the
    application down.
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
            deployer = Deployer({node.host_id: node}, RuntimePlanner())
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

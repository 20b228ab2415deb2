"""The deployer gate: broken assemblies rejected before any incarnate."""

import pytest

from repro.analysis import AssemblyRejected, DeploymentGate
from repro.deployment.application import Deployer
from repro.deployment.planner import RuntimePlanner
from repro.packaging.binaries import GLOBAL_BINARIES
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.topology import SERVER, star
from repro.testing import CounterExecutor, SimRig, counter_package
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

_STORAGE_IDL = """
#pragma prefix "corbalc"
module Demo {
  interface Storage {
    void put(in long value);
  };
};
"""


def storage_package() -> ComponentPackage:
    """A package providing an interface unrelated to Counter."""
    entry = "demo.gate-storage"
    GLOBAL_BINARIES.register(entry, CounterExecutor)  # factory stand-in
    soft = SoftwareDescriptor(
        name="Storage", version=Version.parse("1.0.0"),
        vendor="repro-demo",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/storage")])
    comp = ComponentTypeDescriptor(
        name="Storage",
        provides=[PortDecl("store", "IDL:corbalc/Demo/Storage:1.0")],
        qos=QoSSpec(cpu_units=1.0, memory_mb=1.0))
    builder = PackageBuilder(soft, comp)
    builder.add_idl("storage", _STORAGE_IDL)
    builder.add_binary("bin/any/storage", b"\x00" * 64)
    return ComponentPackage(builder.build())


def broken_assembly() -> AssemblyDescriptor:
    """Dangling connection + interface-incompatible connection.

    Built valid, then mutated: the descriptor's own constructor rejects
    unknown instances, but nothing at run time re-checks the lists —
    exactly the gap the gate closes.
    """
    asm = AssemblyDescriptor(
        name="bad-app",
        instances=[AssemblyInstance("c1", "Counter"),
                   AssemblyInstance("s1", "Storage")])
    # c1.peer expects Demo::Counter but s1.store provides Demo::Storage
    asm.connections.append(
        AssemblyConnection("c1", "peer", "s1", "store"))
    # and this endpoint names an instance that does not exist at all
    asm.connections.append(
        AssemblyConnection("c1", "peer", "ghost", "value"))
    return asm


@pytest.fixture
def rig():
    r = SimRig(star(3, hub_profile=SERVER))
    r.node("hub").install_package(counter_package(cpu_units=5.0))
    r.node("hub").install_package(storage_package())
    return r


def total_instances(rig) -> int:
    return sum(len(node.container) for node in rig.nodes.values())


class TestGateRejectsBrokenAssembly:
    def test_rejected_before_any_incarnation(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub",
                       gate=DeploymentGate())
        with pytest.raises(AssemblyRejected):
            rig.run(until=dep.deploy(broken_assembly()))
        assert total_instances(rig) == 0
        assert dep.applications == []

    def test_findings_surfaced_in_error(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub",
                       gate=DeploymentGate())
        with pytest.raises(AssemblyRejected) as err:
            rig.run(until=dep.deploy(broken_assembly()))
        codes = {f.code for f in err.value.findings}
        assert "ASM004" in codes      # dangling connection
        assert "ASM007" in codes      # incompatible port types
        assert "ASM007" in str(err.value) or "ASM004" in str(err.value)

    def test_rejection_counted_in_metrics(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub",
                       gate=DeploymentGate())
        with pytest.raises(AssemblyRejected):
            rig.run(until=dep.deploy(broken_assembly()))
        hub = rig.node("hub")
        assert hub.metrics.counter("analysis.rejected").value == 1


class TestGatePassesGoodAssemblies:
    def test_valid_assembly_deploys_with_gate_enabled(self, rig):
        asm = AssemblyDescriptor(
            name="good-app",
            instances=[AssemblyInstance("a", "Counter"),
                       AssemblyInstance("b", "Counter")],
            connections=[AssemblyConnection("a", "peer", "b", "value")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub",
                       gate=DeploymentGate())
        app = rig.run(until=dep.deploy(asm))
        assert set(app.placement) == {"a", "b"}
        assert total_instances(rig) == 2
        assert rig.node("hub").metrics.counter("analysis.rejected").value \
            == 0

    def test_warnings_do_not_block(self, rig):
        # an unwired non-optional receptacle is ASM010, a warning
        asm = AssemblyDescriptor(
            name="warned-app",
            instances=[AssemblyInstance("a", "Counter")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub",
                       gate=DeploymentGate())
        app = rig.run(until=dep.deploy(asm))
        assert total_instances(rig) == 1

    def test_verify_reports_without_raising(self, rig):
        diag = DeploymentGate().verify(broken_assembly(), rig.nodes)
        assert diag.has_errors()
        assert {"ASM004", "ASM007"} <= diag.codes()

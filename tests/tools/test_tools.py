"""Tests for hand-built assemblies and usage metering.

There is no builder tool: an application is an
:class:`~repro.xmlmeta.descriptors.AssemblyDescriptor` built directly,
and the one assembly validator -- ``analysis.assembly.check_assembly``,
run by :class:`~repro.analysis.DeploymentGate` against the packages
live nodes hold -- refuses what a builder would have refused.
"""

import pytest

from repro.analysis import AssemblyRejected, DeploymentGate
from repro.tools.licensing import UsageMeter
from repro.cscw import (
    display_package,
    gui_part_package,
    whiteboard_package,
)
from repro.testing import counter_package, star_rig
from repro.util.errors import ValidationError
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)

BOARD_APP = [AssemblyInstance("board", "Whiteboard"),
             AssemblyInstance("gui", "BoardGui"),
             AssemblyInstance("screen", "Display")]
BOARD_WIRING = [
    AssemblyConnection("gui", "display", "screen", "graphics"),
    AssemblyConnection("gui", "board", "board", "changes", kind="event"),
]


class TestAssemblyBuilder:
    """What a builder tool checks, held by the descriptor and the gate."""

    @pytest.fixture
    def rig(self):
        r = star_rig(2)
        hub = r.node("hub")
        for package in (whiteboard_package(), gui_part_package(),
                        display_package(), counter_package()):
            hub.install_package(package)
        return r

    def rejected(self, rig, instances, connections=()):
        assembly = AssemblyDescriptor("wb", list(instances),
                                      list(connections))
        with pytest.raises(AssemblyRejected) as info:
            DeploymentGate().check(assembly, rig.nodes)
        return {finding.code for finding in info.value.findings}

    def test_valid_assembly_builds(self, rig):
        asm = AssemblyDescriptor("wb", BOARD_APP, BOARD_WIRING)
        diag = DeploymentGate().check(asm, rig.nodes)
        assert not diag.has_errors()
        assert len(asm.instances) == 3
        assert len(asm.connections) == 2

    def test_unknown_component_rejected(self, rig):
        assert "ASM001" in self.rejected(
            rig, [AssemblyInstance("x", "Ghost")])

    def test_duplicate_instance_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            AssemblyDescriptor("wb", [AssemblyInstance("a", "Display"),
                                      AssemblyInstance("a", "Display")])

    def test_interface_type_mismatch_rejected(self, rig):
        # gui.display needs Display, board.surface offers Surface
        assert "ASM007" in self.rejected(rig, BOARD_APP[:2], [
            AssemblyConnection("gui", "display", "board", "surface")])

    def test_unknown_ports_rejected(self, rig):
        assert "ASM005" in self.rejected(rig, BOARD_APP[1:], [
            AssemblyConnection("gui", "nonexistent", "screen",
                               "graphics")])
        assert "ASM005" in self.rejected(rig, BOARD_APP[1:], [
            AssemblyConnection("gui", "display", "screen",
                               "nonexistent")])

    def test_event_kind_mismatch_rejected(self, rig):
        # counter's 'pokes' sink consumes demo.poke; board emits cscw.stroke
        assert "ASM008" in self.rejected(
            rig, [AssemblyInstance("c", "Counter"), BOARD_APP[0]],
            [AssemblyConnection("c", "pokes", "board", "changes",
                                kind="event")])

    def test_unsatisfied_mandatory_receptacle_reported(self, rig):
        # gui.display is mandatory and unwired: reported, not blocking
        asm = AssemblyDescriptor("wb", [BOARD_APP[1]])
        diag = DeploymentGate().check(asm, rig.nodes)
        assert diag.codes() == {"ASM010"}
        assert not diag.has_errors()

    def test_built_assembly_deploys(self, rig):
        """A hand-built descriptor is directly consumable by the
        Deployer, with the gate in front of it."""
        from repro.deployment import Deployer, RuntimePlanner
        asm = AssemblyDescriptor("wb", BOARD_APP, BOARD_WIRING)
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub",
                       gate=DeploymentGate())
        app = rig.run(until=dep.deploy(asm))
        assert set(app.placement) == {"board", "gui", "screen"}


class TestUsageMeter:
    def make_rig(self):
        r = star_rig(1)
        hub = r.node("hub")
        hub.install_package(counter_package(name="FreeComp"))
        # a pay-per-use component
        from repro.testing import counter_package as cp
        pkg = cp(name="PaidComp")
        import dataclasses
        # rebuild with pay-per-use licensing
        from repro.packaging.package import ComponentPackage, PackageBuilder
        soft = dataclasses.replace(pkg.software, license="pay-per-use",
                                   cost_per_use=0.25)
        builder = PackageBuilder(soft, pkg.component)
        for path in pkg.members():
            if path.startswith("bin/"):
                builder.add_binary(path, pkg.member(path))
        hub.install_package(ComponentPackage(builder.build()))
        # and a subscription component
        soft2 = dataclasses.replace(pkg.software, name="SubComp",
                                    license="subscription")
        comp2 = dataclasses.replace(pkg.component, name="SubComp")
        builder2 = PackageBuilder(soft2, comp2)
        for path in pkg.members():
            if path.startswith("bin/"):
                builder2.add_binary(path, pkg.member(path))
        hub.install_package(ComponentPackage(builder2.build()))
        return r, hub, UsageMeter(hub)

    def test_pay_per_use_charges_per_creation(self):
        rig, hub, meter = self.make_rig()
        for _ in range(3):
            inst = hub.container.create_instance("PaidComp")
            hub.container.destroy_instance(inst.instance_id)
        (record,) = [r for r in meter.records()
                     if r.component == "PaidComp"]
        assert record.uses == 3
        assert record.charge == pytest.approx(0.75)

    def test_free_components_unmetered(self):
        rig, hub, meter = self.make_rig()
        hub.container.create_instance("FreeComp")
        assert all(r.component != "FreeComp" for r in meter.records())
        assert meter.total_due() == 0.0

    def test_subscription_charges_usage_time(self):
        rig, hub, meter = self.make_rig()
        inst = hub.container.create_instance("SubComp")
        rig.run(until=100.0)
        hub.container.destroy_instance(inst.instance_id)
        (record,) = [r for r in meter.records()
                     if r.component == "SubComp"]
        assert record.usage_seconds == pytest.approx(100.0)
        assert record.charge == pytest.approx(
            100.0 * UsageMeter.SUBSCRIPTION_RATE)

    def test_invoice_formats(self):
        rig, hub, meter = self.make_rig()
        inst = hub.container.create_instance("PaidComp")
        hub.container.destroy_instance(inst.instance_id)
        text = meter.invoice()
        assert "PaidComp" in text
        assert "total due: 0.25" in text

"""Layer 3: whole-assembly wiring checks."""

from repro.analysis.assembly import check_assembly
from repro.analysis.descriptors import PackageSet
from repro.idl import parse
from repro.idl.check import check_specification
from repro.util.diagnostics import Diagnostics
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
    ComponentTypeDescriptor,
    EventPortDecl,
    PortDecl,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version, VersionRange

IDL = '#pragma prefix "corbalc"\n' \
      "module Demo { interface Counter { long read(); }; " \
      "interface Audited : Counter { long audits(); }; " \
      "interface Other { void o(); }; };"
COUNTER_ID = "IDL:corbalc/Demo/Counter:1.0"
AUDITED_ID = "IDL:corbalc/Demo/Audited:1.0"
OTHER_ID = "IDL:corbalc/Demo/Other:1.0"

GRAPH = check_specification(parse(IDL), Diagnostics()).graph


def packages() -> PackageSet:
    out = PackageSet()
    out.add(
        SoftwareDescriptor(name="Counter", version=Version.parse("1.2.0")),
        ComponentTypeDescriptor(
            name="Counter",
            provides=[PortDecl("value", AUDITED_ID)],
            uses=[PortDecl("peer", COUNTER_ID, optional=True)],
            emits=[EventPortDecl("ticks", "demo.tick")]))
    out.add(
        SoftwareDescriptor(name="Audit", version=Version.parse("1.0.0")),
        ComponentTypeDescriptor(
            name="Audit",
            uses=[PortDecl("backend", COUNTER_ID),
                  PortDecl("tap", OTHER_ID, optional=True)],
            consumes=[EventPortDecl("watch", "demo.tick"),
                      EventPortDecl("other", "demo.other")]))
    return out


def run(instances, connections):
    diag = Diagnostics()
    assembly = AssemblyDescriptor(name="app", instances=instances,
                                  connections=list(connections))
    check_assembly(assembly, packages(), GRAPH, diag)
    return diag


GOOD_INSTANCES = [AssemblyInstance("c", "Counter"),
                  AssemblyInstance("a", "Audit")]


class TestInstances:
    def test_clean_assembly(self):
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("a", "backend", "c", "value"),
            AssemblyConnection("a", "watch", "c", "ticks", kind="event"),
        ])
        assert len(diag) == 0

    def test_unknown_component(self):
        diag = run([AssemblyInstance("x", "Nonexistent")], [])
        assert diag.codes() == {"ASM001"}

    def test_unsatisfiable_instance_version(self):
        diag = run([AssemblyInstance("c", "Counter",
                                     VersionRange(">=9.0"))], [])
        assert diag.codes() == {"ASM002"}

    def test_empty_instance_version_range(self):
        diag = run([AssemblyInstance("c", "Counter",
                                     VersionRange(">=2.0, <1.0"))], [])
        assert diag.codes() == {"ASM002"}

    def test_duplicate_instance_names(self):
        # descriptors reject duplicates at construction, but lists can
        # be mutated afterwards — the analyzer re-checks
        assembly = AssemblyDescriptor(
            name="app", instances=[AssemblyInstance("c", "Counter")])
        assembly.instances.append(AssemblyInstance("c", "Audit"))
        diag = Diagnostics()
        check_assembly(assembly, packages(), GRAPH, diag)
        assert "ASM003" in diag.codes()


class TestConnections:
    def test_dangling_instance(self):
        assembly = AssemblyDescriptor(name="app",
                                      instances=list(GOOD_INSTANCES))
        assembly.connections.append(
            AssemblyConnection("ghost", "p", "c", "value"))
        diag = Diagnostics()
        check_assembly(assembly, packages(), GRAPH, diag)
        assert "ASM004" in diag.codes()

    def test_unknown_port(self):
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("a", "backend", "c", "nothere")])
        assert "ASM005" in diag.codes()

    def test_wrong_direction(self):
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("c", "value", "c", "value")])
        assert "ASM006" in diag.codes()

    def test_subtype_provider_accepted(self):
        # Audit.backend expects Counter; Counter.value provides Audited,
        # a subtype — legal.
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("a", "backend", "c", "value")])
        assert "ASM007" not in diag.codes()

    def test_incompatible_interfaces(self):
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("a", "tap", "c", "value")])
        assert "ASM007" in diag.codes()

    def test_event_kind_mismatch(self):
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("a", "other", "c", "ticks", kind="event")])
        assert "ASM008" in diag.codes()

    def test_event_direction(self):
        diag = run(GOOD_INSTANCES, [
            AssemblyConnection("a", "backend", "c", "ticks",
                               kind="event")])
        assert "ASM006" in diag.codes()


class TestWholeGraph:
    def test_dependency_cycle_warns(self):
        diag = run([AssemblyInstance("c1", "Counter"),
                    AssemblyInstance("c2", "Counter")], [
            AssemblyConnection("c1", "peer", "c2", "value"),
            AssemblyConnection("c2", "peer", "c1", "value"),
        ])
        assert "ASM009" in diag.codes()
        assert not diag.has_errors()

    def test_unconnected_required_receptacle_warns(self):
        diag = run(GOOD_INSTANCES, [])
        asm010 = diag.by_code("ASM010")
        assert len(asm010) == 1           # a.backend; c.peer is optional
        assert "backend" in asm010[0].message
        assert not diag.has_errors()

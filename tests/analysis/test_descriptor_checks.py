"""Layer 2: descriptor cross-checks against IDL and the package set."""

from repro.analysis.descriptors import (
    PackageSet,
    check_component_type,
    check_software,
)
from repro.idl import parse
from repro.idl.check import check_specification
from repro.util.diagnostics import Diagnostics
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    Dependency,
    EventPortDecl,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version, VersionRange

IDL = '#pragma prefix "corbalc"\n' \
      "module Demo { interface Counter { long read(); }; " \
      "interface Audited : Counter { long audits(); }; };"
COUNTER_ID = "IDL:corbalc/Demo/Counter:1.0"
AUDITED_ID = "IDL:corbalc/Demo/Audited:1.0"


def graph():
    return check_specification(parse(IDL), Diagnostics()).graph


def soft(name="C", version="1.0.0", deps=()):
    return SoftwareDescriptor(name=name, version=Version.parse(version),
                              dependencies=list(deps))


def comp(name="C", **kwargs):
    return ComponentTypeDescriptor(name=name, **kwargs)


class TestComponentTypeChecks:
    def test_resolved_ports_are_clean(self):
        diag = Diagnostics()
        check_component_type(
            comp(provides=[PortDecl("value", AUDITED_ID)],
                 uses=[PortDecl("peer", COUNTER_ID, optional=True)]),
            graph(), diag)
        assert len(diag) == 0

    def test_unresolved_port_repo_id(self):
        diag = Diagnostics()
        check_component_type(
            comp(provides=[PortDecl("value", "IDL:corbalc/No/Such:1.0")]),
            graph(), diag)
        assert diag.codes() == {"CMP001"}
        assert diag.has_errors()

    def test_unresolved_port_is_info_when_lenient(self):
        diag = Diagnostics()
        check_component_type(
            comp(provides=[PortDecl("value", "IDL:corbalc/No/Such:1.0")]),
            graph(), diag, strict_interfaces=False)
        assert diag.codes() == {"CMP001"}
        assert not diag.has_errors()

    def test_duplicate_event_port_name(self):
        diag = Diagnostics()
        check_component_type(
            comp(emits=[EventPortDecl("tick", "a")],
                 consumes=[EventPortDecl("tick", "b")]),
            graph(), diag)
        assert "CMP006" in diag.codes()

    def test_event_port_shadowing_interface_port(self):
        diag = Diagnostics()
        check_component_type(
            comp(provides=[PortDecl("p", COUNTER_ID)],
                 emits=[EventPortDecl("p", "a")]),
            graph(), diag)
        assert "CMP006" in diag.codes()

    def test_negative_qos(self):
        diag = Diagnostics()
        check_component_type(
            comp(qos=QoSSpec(cpu_units=-1.0)), graph(), diag)
        assert diag.codes() == {"CMP005"}

    def test_unknown_framework_service_warns(self):
        diag = Diagnostics()
        check_component_type(
            comp(framework_services=["teleport"]), graph(), diag)
        assert diag.codes() == {"CMP004"}
        assert not diag.has_errors()

    def test_known_framework_service_is_clean(self):
        diag = Diagnostics()
        check_component_type(
            comp(framework_services=["migration", "events"]),
            graph(), diag)
        assert len(diag) == 0


class TestSoftwareChecks:
    def test_satisfied_dependency_is_clean(self):
        packages = PackageSet()
        packages.add(soft("Counter", "1.2.0"), comp("Counter"))
        diag = Diagnostics()
        check_software(
            soft(deps=[Dependency("Counter", VersionRange(">=1.0, <2.0"))]),
            packages, diag)
        assert len(diag) == 0

    def test_missing_dependency(self):
        diag = Diagnostics()
        check_software(soft(deps=[Dependency("Ghost")]),
                       PackageSet(), diag)
        assert diag.codes() == {"CMP002"}

    def test_version_mismatch(self):
        packages = PackageSet()
        packages.add(soft("Counter", "1.0.0"), comp("Counter"))
        diag = Diagnostics()
        check_software(
            soft(deps=[Dependency("Counter", VersionRange(">=2.0"))]),
            packages, diag)
        assert diag.codes() == {"CMP002"}
        assert "1.0.0" in diag.findings[0].message

    def test_empty_range_reported_as_such(self):
        packages = PackageSet()
        packages.add(soft("Counter", "1.0.0"), comp("Counter"))
        diag = Diagnostics()
        check_software(
            soft(deps=[Dependency("Counter",
                                  VersionRange(">=2.0, <1.0"))]),
            packages, diag)
        assert diag.codes() == {"CMP003"}


class TestPackageSet:
    def test_resolve_prefers_newest_in_range(self):
        packages = PackageSet()
        packages.add(soft("C", "1.0.0"), comp("C"))
        packages.add(soft("C", "1.5.0"), comp("C"))
        packages.add(soft("C", "2.0.0"), comp("C"))
        info = packages.resolve("C", VersionRange("<2.0"))
        assert str(info.version) == "1.5.0"

    def test_resolve_unknown_is_none(self):
        assert PackageSet().resolve("C") is None

    def test_membership_and_versions(self):
        packages = PackageSet()
        packages.add(soft("C", "1.0.0"), comp("C"))
        assert "C" in packages
        assert "D" not in packages
        assert [str(v) for v in packages.versions_of("C")] == ["1.0.0"]

"""Unit tests for XML descriptors, versions and schema validation."""

import pytest

from repro.util.errors import ValidationError
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
    ComponentTypeDescriptor,
    Dependency,
    EventPortDecl,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.schema import (
    ElementSpec,
    ONE,
    OPT,
    SchemaError,
    parse_and_validate,
)
from repro.xmlmeta.versions import Version, VersionRange


class TestVersion:
    def test_parse_and_str(self):
        v = Version.parse("1.2.3")
        assert (v.major, v.minor, v.patch) == (1, 2, 3)
        assert str(v) == "1.2.3"
        assert str(Version.parse("2.0")) == "2.0.0"

    def test_ordering(self):
        assert Version.parse("1.2.3") < Version.parse("1.10.0")
        assert Version.parse("2.0.0") > Version.parse("1.99.99")
        assert Version.parse("1.0") == Version(1, 0, 0)

    @pytest.mark.parametrize("bad", ["", "1", "a.b", "1.2.3.4", "1.-2"])
    def test_bad_versions_rejected(self, bad):
        with pytest.raises(ValidationError):
            Version.parse(bad)


class TestVersionRange:
    def test_empty_matches_all(self):
        r = VersionRange("")
        assert r.matches(Version(0, 0, 1))
        assert str(r) == "*"

    def test_conjunction(self):
        r = VersionRange(">=1.2, <2.0")
        assert r.matches(Version.parse("1.2.0"))
        assert r.matches(Version.parse("1.9.9"))
        assert not r.matches(Version.parse("1.1.9"))
        assert not r.matches(Version.parse("2.0.0"))

    def test_exact(self):
        r = VersionRange("==1.5")
        assert r.matches(Version.parse("1.5.0"))
        assert not r.matches(Version.parse("1.5.1"))

    def test_bad_constraint_rejected(self):
        with pytest.raises(ValidationError):
            VersionRange("~=1.2")


class TestSchema:
    SPEC = (
        ElementSpec("root", required_attrs=("id",), optional_attrs=("note",))
        .child(ElementSpec("leaf", required_attrs=("v",)), ONE)
        .child(ElementSpec("extra", text=True), OPT)
    )

    def test_valid_document(self):
        parse_and_validate('<root id="1"><leaf v="x"/></root>', self.SPEC)

    def test_missing_required_attr(self):
        with pytest.raises(SchemaError, match="missing attribute"):
            parse_and_validate('<root><leaf v="x"/></root>', self.SPEC)

    def test_unexpected_attr(self):
        with pytest.raises(SchemaError, match="unexpected attribute"):
            parse_and_validate('<root id="1" bogus="y"><leaf v="x"/></root>',
                               self.SPEC)

    def test_unexpected_child(self):
        with pytest.raises(SchemaError, match="unexpected child"):
            parse_and_validate(
                '<root id="1"><leaf v="x"/><weird/></root>', self.SPEC)

    def test_cardinality_one_enforced(self):
        with pytest.raises(SchemaError, match="exactly one"):
            parse_and_validate('<root id="1"/>', self.SPEC)
        with pytest.raises(SchemaError, match="exactly one"):
            parse_and_validate(
                '<root id="1"><leaf v="a"/><leaf v="b"/></root>', self.SPEC)

    def test_text_rules(self):
        with pytest.raises(SchemaError, match="character content"):
            parse_and_validate('<root id="1">hi<leaf v="x"/></root>',
                               self.SPEC)
        parse_and_validate(
            '<root id="1"><leaf v="x"/><extra>ok</extra></root>', self.SPEC)

    def test_malformed_xml(self):
        with pytest.raises(SchemaError, match="malformed"):
            parse_and_validate("<root", self.SPEC)


def sample_software() -> SoftwareDescriptor:
    return SoftwareDescriptor(
        name="VideoDecoder",
        version=Version(1, 4, 2),
        vendor="acme",
        abstract="Decodes synthetic MPEG-like streams.",
        license="pay-per-use",
        cost_per_use=0.01,
        mobility="mobile",
        replication="stateless",
        aggregation="data-parallel",
        dependencies=[
            Dependency("Display", VersionRange(">=1.0")),
            Dependency("StreamSource"),
        ],
        implementations=[
            ImplementationDescriptor("linux", "x86", "corba-lc",
                                     "video.decoder", "bin/linux-x86-corba-lc/decoder"),
            ImplementationDescriptor("palmos", "arm", "corba-lc-micro",
                                     "video.decoder.tiny", "bin/palmos-arm-micro/decoder"),
        ],
    )


def sample_component() -> ComponentTypeDescriptor:
    return ComponentTypeDescriptor(
        name="VideoDecoder",
        description="The paper's motivating bandwidth-heavy component.",
        provides=[PortDecl("frames", "IDL:cscw/FrameSink:1.0")],
        uses=[PortDecl("source", "IDL:cscw/StreamSource:1.0"),
              PortDecl("stats", "IDL:cscw/Stats:1.0", optional=True)],
        emits=[EventPortDecl("decoded", "cscw.frame")],
        consumes=[EventPortDecl("control", "cscw.control")],
        qos=QoSSpec(cpu_units=50.0, memory_mb=32.0, bandwidth_bps=4e6),
        lifecycle="session",
        framework_services=["migration", "events"],
    )


class TestSoftwareDescriptor:
    def test_xml_roundtrip(self):
        sd = sample_software()
        again = SoftwareDescriptor.from_xml(sd.to_xml())
        assert again == sd

    def test_bad_enums_rejected(self):
        with pytest.raises(ValidationError):
            SoftwareDescriptor("X", Version(1, 0), mobility="teleport")
        with pytest.raises(ValidationError):
            SoftwareDescriptor("X", Version(1, 0), replication="psychic")
        with pytest.raises(ValidationError):
            SoftwareDescriptor("X", Version(1, 0), license="stolen")

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            SoftwareDescriptor("", Version(1, 0))

    def test_implementation_matching(self):
        sd = sample_software()
        impl = sd.implementation_for("linux", "x86", "corba-lc")
        assert impl.entry_point == "video.decoder"
        assert sd.implementation_for("win32", "x86", "corba-lc") is None

    def test_wildcard_implementation(self):
        impl = ImplementationDescriptor("*", "*", "*", "e", "bin/any/x")
        assert impl.matches("beos", "mips", "tao")

    def test_dependency_satisfaction(self):
        dep = Dependency("Display", VersionRange(">=1.0"))
        assert dep.component == "Display"
        assert dep.versions.matches(Version(1, 5))
        assert not dep.versions.matches(Version(0, 9))

    def test_is_mobile(self):
        assert sample_software().is_mobile
        pinned = SoftwareDescriptor("X", Version(1, 0), mobility="pinned")
        assert not pinned.is_mobile


class TestComponentTypeDescriptor:
    def test_xml_roundtrip(self):
        cd = sample_component()
        again = ComponentTypeDescriptor.from_xml(cd.to_xml())
        assert again == cd

    def test_duplicate_port_names_rejected(self):
        with pytest.raises(ValidationError):
            ComponentTypeDescriptor(
                name="X",
                provides=[PortDecl("p", "IDL:a:1.0")],
                uses=[PortDecl("p", "IDL:b:1.0")],
            )

    def test_required_components_excludes_optional(self):
        cd = sample_component()
        assert [p.name for p in cd.required_components()] == ["source"]

    def test_bad_lifecycle_rejected(self):
        with pytest.raises(ValidationError):
            ComponentTypeDescriptor(name="X", lifecycle="eternal")


class TestAssemblyDescriptor:
    def make(self) -> AssemblyDescriptor:
        return AssemblyDescriptor(
            name="whiteboard-app",
            instances=[
                AssemblyInstance("board", "Whiteboard", VersionRange(">=1.0")),
                AssemblyInstance("gui", "BoardGui"),
            ],
            connections=[
                AssemblyConnection("gui", "model", "board", "surface"),
                AssemblyConnection("gui", "strokes", "board", "stroke-events",
                                   kind="event"),
            ],
        )

    def test_xml_roundtrip(self):
        ad = self.make()
        again = AssemblyDescriptor.from_xml(ad.to_xml())
        assert again == ad

    def test_duplicate_instances_rejected(self):
        with pytest.raises(ValidationError):
            AssemblyDescriptor(
                name="x",
                instances=[AssemblyInstance("a", "C"),
                           AssemblyInstance("a", "D")],
            )

    def test_unknown_connection_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            AssemblyDescriptor(
                name="x",
                instances=[AssemblyInstance("a", "C")],
                connections=[AssemblyConnection("a", "p", "ghost", "q")],
            )

    def test_bad_connection_kind_rejected(self):
        with pytest.raises(ValidationError):
            AssemblyDescriptor(
                name="x",
                instances=[AssemblyInstance("a", "C"),
                           AssemblyInstance("b", "D")],
                connections=[AssemblyConnection("a", "p", "b", "q",
                                                kind="telepathy")],
            )

    def test_bad_endpoint_format_rejected(self):
        xml = ('<assembly name="x">'
               '<instance name="a" component="C" versions=""/>'
               '<connect from="a-noport" to="a.p" kind="interface"/>'
               "</assembly>")
        with pytest.raises(ValidationError):
            AssemblyDescriptor.from_xml(xml)

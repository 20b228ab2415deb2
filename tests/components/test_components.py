"""Unit tests for the component model: executors, ports, model, reflection."""

import pytest

from repro.components.executor import (
    ComponentExecutor,
    LifecycleError,
    StatefulMixin,
)
from repro.components.model import ComponentClass
from repro.components.ports import (
    EventSinkPort,
    EventSourcePort,
    FacetPort,
    PortError,
    PortSet,
    ReceptaclePort,
)
from repro.components.reflection import (
    ComponentInfo,
    InstanceInfo,
    PortInfo,
)
from repro.orb.ior import IOR
from repro.packaging.package import PackageError
from repro.sim.topology import DESKTOP, PDA
from repro.testing import COUNTER_IFACE, CounterExecutor, counter_package
from repro.util.errors import ConfigurationError

from tests.oracles.codec import decode_one, encode_one


class TestExecutorLifecycle:
    def test_activate_passivate_cycle(self):
        ex = ComponentExecutor()
        assert not ex.is_active
        ex.activate()
        assert ex.is_active
        ex.passivate()
        assert not ex.is_active
        ex.activate()  # reactivation allowed (migration)

    def test_double_activate_rejected(self):
        ex = ComponentExecutor()
        ex.activate()
        with pytest.raises(LifecycleError):
            ex.activate()

    def test_passivate_inactive_rejected(self):
        with pytest.raises(LifecycleError):
            ComponentExecutor().passivate()

    def test_remove_passivates_if_active(self):
        log = []

        class Ex(ComponentExecutor):
            def on_passivate(self):
                log.append("passivate")

            def on_remove(self):
                log.append("remove")

        ex = Ex()
        ex.activate()
        ex.remove()
        assert log == ["passivate", "remove"]

    def test_default_state_is_empty(self):
        ex = ComponentExecutor()
        assert ex.get_state() == {}
        ex.set_state({"anything": 1})  # ignored, no raise

    def test_stateful_mixin_roundtrip(self):
        class Ex(StatefulMixin, ComponentExecutor):
            STATE_ATTRS = ("a", "b")

            def __init__(self):
                super().__init__()
                self.a = 1
                self.b = "x"
                self.c = "not-state"

        ex = Ex()
        ex.a = 42
        state = ex.get_state()
        assert state == {"a": 42, "b": "x"}
        ex2 = Ex()
        ex2.set_state(state)
        assert ex2.a == 42 and ex2.c == "not-state"

    def test_aggregation_unsupported_by_default(self):
        with pytest.raises(LifecycleError):
            ComponentExecutor().split(2)
        with pytest.raises(LifecycleError):
            ComponentExecutor().merge([])

    def test_undeclared_facet_rejected(self):
        with pytest.raises(LifecycleError):
            ComponentExecutor().create_facet("nope")


class TestPortSet:
    def make_facet(self, name="f"):
        class FakeServant:
            pass
        ior = IOR("IDL:t/X:1.0", "h", "a", "k")
        return FacetPort(name, "IDL:t/X:1.0", FakeServant(), ior)

    def test_add_get_remove(self):
        ports = PortSet()
        ports.add(self.make_facet())
        assert "f" in ports
        assert len(ports) == 1
        ports.remove("f")
        assert "f" not in ports
        with pytest.raises(PortError):
            ports.get("f")

    def test_duplicate_name_rejected(self):
        ports = PortSet()
        ports.add(self.make_facet())
        with pytest.raises(ConfigurationError):
            ports.add(ReceptaclePort("f", "IDL:t/X:1.0"))

    def test_typed_accessors_check_kind(self):
        ports = PortSet()
        ports.add(self.make_facet())
        assert ports.facet("f") is not None
        with pytest.raises(PortError):
            ports.receptacle("f")
        with pytest.raises(PortError):
            ports.event_source("f")

    def test_listeners_see_mutations(self):
        ports = PortSet()
        seen = []
        ports.listeners.append(lambda action, p: seen.append((action, p.name)))
        ports.add(self.make_facet())
        ports.add(ReceptaclePort("r", "IDL:t/Y:1.0"))
        ports.changed("r")
        ports.remove("f")
        assert seen == [("added", "f"), ("added", "r"),
                        ("changed", "r"), ("removed", "f")]

    def test_by_kind_views(self):
        ports = PortSet()
        ports.add(self.make_facet())
        ports.add(ReceptaclePort("r", "IDL:t/Y:1.0"))
        ports.add(EventSourcePort("src", "kind.a"))
        ports.add(EventSinkPort("snk", "kind.a"))
        assert [p.name for p in ports.facets()] == ["f"]
        assert [p.name for p in ports.receptacles()] == ["r"]
        assert len(ports.by_kind("event-source")) == 1
        assert sorted(ports.names()) == ["f", "r", "snk", "src"]


class TestReceptacle:
    def test_connect_disconnect(self):
        port = ReceptaclePort("r", "IDL:t/X:1.0")
        ior = IOR("IDL:t/X:1.0", "h", "a", "k")
        assert not port.connected
        port.connect(ior)
        assert port.connected
        assert port.disconnect() == ior
        assert not port.connected

    def test_double_connect_rejected(self):
        port = ReceptaclePort("r", "IDL:t/X:1.0")
        ior = IOR("IDL:t/X:1.0", "h", "a", "k")
        port.connect(ior)
        with pytest.raises(PortError):
            port.connect(ior)

    def test_disconnect_unconnected_rejected(self):
        with pytest.raises(PortError):
            ReceptaclePort("r", "IDL:t/X:1.0").disconnect()

    def test_describe_shows_peer(self):
        port = ReceptaclePort("r", "IDL:t/X:1.0", optional=True)
        desc = port.describe()
        assert desc["peer"] == ""
        assert desc["optional"] is True
        port.connect(IOR("IDL:t/X:1.0", "h", "a", "k"))
        assert "h" in port.describe()["peer"]


class TestComponentClass:
    def test_platform_resolution(self):
        cls = ComponentClass(counter_package(), DESKTOP)
        assert cls.name == "Counter"
        assert cls.is_mobile
        assert cls.replicable
        assert not cls.aggregatable
        assert isinstance(cls.new_executor(), CounterExecutor)

    def test_provides_repo_id(self):
        cls = ComponentClass(counter_package(), DESKTOP)
        assert cls.provides_repo_id(COUNTER_IFACE.repo_id)
        assert not cls.provides_repo_id("IDL:other:1.0")

    def test_unsupported_platform_rejected(self):
        from repro.packaging.package import ComponentPackage
        from repro.packaging.binaries import synthetic_payload, GLOBAL_BINARIES
        from repro.packaging.package import PackageBuilder
        from repro.xmlmeta.descriptors import (
            ComponentTypeDescriptor, ImplementationDescriptor,
            SoftwareDescriptor,
        )
        from repro.xmlmeta.versions import Version

        GLOBAL_BINARIES.register("test.linuxonly", ComponentExecutor)
        soft = SoftwareDescriptor(
            name="LinuxOnly", version=Version(1, 0),
            implementations=[ImplementationDescriptor(
                "linux", "x86", "corba-lc", "test.linuxonly",
                "bin/linux/impl")],
        )
        comp = ComponentTypeDescriptor(name="LinuxOnly")
        b = PackageBuilder(soft, comp)
        b.add_binary("bin/linux/impl", synthetic_payload(10))
        pkg = ComponentPackage(b.build())
        with pytest.raises(PackageError):
            ComponentClass(pkg, PDA)  # palmos/arm has no binary


class TestReflectionRecords:
    def test_instance_info_roundtrips_as_struct(self):
        from repro.components.reflection import INSTANCE_INFO_TC
        info = InstanceInfo(
            instance_id="i-1", component="C", version="1.0.0",
            host="h0", active=True,
            ports=(PortInfo("p", "facet", "IDL:t/X:1.0", "IOR:..."),))
        value = info.to_value()
        decoded = decode_one(INSTANCE_INFO_TC,
                             encode_one(INSTANCE_INFO_TC, value))
        assert InstanceInfo.from_value(decoded) == info

    def test_component_info_from_package(self):
        info = ComponentInfo.from_package(counter_package())
        assert info.name == "Counter"
        assert COUNTER_IFACE.repo_id in info.provides
        assert info.qos_cpu == 5.0
        # optional receptacle is not a hard requirement
        assert info.uses == ()

    def test_component_info_roundtrips_as_struct(self):
        from repro.components.reflection import COMPONENT_INFO_TC
        info = ComponentInfo.from_package(counter_package())
        decoded = decode_one(COMPONENT_INFO_TC,
                             encode_one(COMPONENT_INFO_TC, info.to_value()))
        assert ComponentInfo.from_value(decoded) == info

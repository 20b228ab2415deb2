"""Tests for the Node service: repository, resources, registry, acceptor."""

import pytest

from repro.node.acceptor import InstallError
from repro.node.node import Node
from repro.node.registry import NotInstalled
from repro.node.repository import ComponentRepository, NotInstalledError
from repro.node.resources import ResourceManager, ResourceSnapshot
from repro.orb.exceptions import NO_RESOURCES, TRANSIENT
from repro.orb.ior import IOR
from repro.packaging.package import (ComponentPackage, PackageBuilder,
                                     PackageError)
from repro.packaging.signature import SignatureError, VendorKeyRegistry
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import DESKTOP, PDA, SERVER, Host, star
from repro.testing import COUNTER_IFACE, counter_package, star_rig
from repro.util.errors import ConfigurationError
from repro.xmlmeta.descriptors import QoSSpec
from repro.xmlmeta.versions import Version, VersionRange


class TestResourceManager:
    def make(self, profile=DESKTOP):
        env = Environment()
        return env, ResourceManager(env, Host("h", profile))

    def test_reserve_release_accounting(self):
        env, rm = self.make()
        qos = QoSSpec(cpu_units=100, memory_mb=64)
        assert rm.fits(qos)
        rm.reserve(qos)
        assert rm.cpu_committed == 100
        assert rm.instance_count == 1
        rm.release(qos)
        assert rm.cpu_committed == 0
        assert rm.instance_count == 0

    def test_overcommit_rejected(self):
        env, rm = self.make()
        with pytest.raises(NO_RESOURCES):
            rm.reserve(QoSSpec(cpu_units=DESKTOP.cpu_power + 1))
        with pytest.raises(NO_RESOURCES):
            rm.reserve(QoSSpec(memory_mb=DESKTOP.memory_mb + 1))

    def test_snapshot_fields(self):
        env, rm = self.make(SERVER)
        rm.reserve(QoSSpec(cpu_units=250, memory_mb=100))
        snap = rm.snapshot()
        assert snap.cpu_available == SERVER.cpu_power - 250
        assert snap.cpu_utilization == pytest.approx(250 / SERVER.cpu_power)
        assert snap.memory_available == SERVER.memory_mb - 100
        assert not snap.is_tiny

    def test_snapshot_value_roundtrip(self):
        env, rm = self.make(PDA)
        snap = rm.snapshot()
        assert ResourceSnapshot.from_value(snap.to_value()) == snap
        assert snap.is_tiny

    def test_work_duration_scales_inverse_to_power(self):
        env, rm_fast = self.make(SERVER)
        env2, rm_slow = self.make(PDA)
        assert rm_slow.work_duration(10) > rm_fast.work_duration(10) * 10


class TestRepository:
    def test_install_and_lookup_best_version(self):
        repo = ComponentRepository(DESKTOP)
        repo.install(counter_package("1.0.0"))
        repo.install(counter_package("1.2.0"))
        repo.install(counter_package("2.0.0"))
        assert len(repo) == 3
        best = repo.lookup("Counter")
        assert str(best.version) == "2.0.0"
        in_range = repo.lookup("Counter", VersionRange(">=1.0, <2.0"))
        assert str(in_range.version) == "1.2.0"

    def test_duplicate_version_rejected(self):
        repo = ComponentRepository(DESKTOP)
        repo.install(counter_package("1.0.0"))
        with pytest.raises(PackageError):
            repo.install(counter_package("1.0.0"))

    def test_lookup_missing(self):
        repo = ComponentRepository(DESKTOP)
        with pytest.raises(NotInstalledError):
            repo.lookup("Ghost")
        assert not repo.is_installed("Ghost")
        assert "Ghost" not in repo

    def test_providers_of(self):
        repo = ComponentRepository(DESKTOP)
        repo.install(counter_package())
        assert [c.name for c in repo.providers_of(COUNTER_IFACE.repo_id)] \
            == ["Counter"]
        assert repo.providers_of("IDL:none:1.0") == []

    def test_remove(self):
        repo = ComponentRepository(DESKTOP)
        repo.install(counter_package("1.0.0"))
        repo.remove("Counter", Version(1, 0, 0))
        assert len(repo) == 0
        with pytest.raises(NotInstalledError):
            repo.remove("Counter", Version(1, 0, 0))

    def test_listeners(self):
        repo = ComponentRepository(DESKTOP)
        seen = []
        repo.listeners.append(lambda a, c: seen.append((a, c.name)))
        repo.install(counter_package("1.0.0"))
        repo.remove("Counter", Version(1, 0, 0))
        assert seen == [("installed", "Counter"), ("removed", "Counter")]

    def test_signature_requirement(self):
        keys = VendorKeyRegistry()
        repo = ComponentRepository(DESKTOP, vendor_keys=keys,
                                   require_signature=True)
        with pytest.raises(SignatureError):
            repo.install(counter_package())  # unsigned


class TestSignedPackages:
    """``Node(vendor_keys=..., require_signature=True)`` is the switch
    for the section 2.3 signed-package check."""

    def test_node_refuses_unsigned_and_installs_signed(self):
        env = Environment()
        keys = VendorKeyRegistry()
        node = Node(env, Network(env, star(1)), "h0", vendor_keys=keys,
                    require_signature=True)
        unsigned = counter_package()
        with pytest.raises(SignatureError):
            node.install_package(unsigned)
        assert not node.repository.is_installed("Counter")
        builder = PackageBuilder(unsigned.software, unsigned.component)
        builder.add_binary("bin/any/counter",
                           unsigned.member("bin/any/counter"))
        node.install_package(builder.build(signer=keys))
        assert node.repository.is_installed("Counter")


class TestNodeServices:
    @pytest.fixture
    def rig(self):
        r = star_rig(2)
        r.node("hub").install_package(counter_package())
        return r

    def test_service_ior_wellknown(self):
        ior = Node.service_ior("h9", "registry")
        assert ior.host_id == "h9"
        assert ior.adapter == "node"
        assert ior.object_key == "registry"
        with pytest.raises(ConfigurationError):
            Node.service_ior("h9", "bogus")

    def test_remote_registry_views(self, rig):
        hub, h0 = rig.node("hub"), rig.node("h0")
        hub.container.create_instance("Counter")
        reg = h0.service_stub("hub", "registry")
        installed = h0.orb.sync(reg.installed())
        assert installed[0]["name"] == "Counter"
        instances = h0.orb.sync(reg.instances())
        assert len(instances) == 1
        providers = h0.orb.sync(reg.find_providers(COUNTER_IFACE.repo_id))
        assert providers == ["Counter"]
        running = h0.orb.sync(reg.running_providers(COUNTER_IFACE.repo_id))
        assert len(running) == 1

    def test_factory_of_remote(self, rig):
        h0 = rig.node("h0")
        reg = h0.service_stub("hub", "registry")
        factory_ior = h0.orb.sync(reg.factory_of("Counter"))
        assert isinstance(factory_ior, IOR)
        with pytest.raises(NotInstalled):
            h0.orb.sync(reg.factory_of("Ghost"))

    def test_acceptor_install_fetch_roundtrip(self, rig):
        hub, h0 = rig.node("hub"), rig.node("h0")
        acceptor = hub.service_stub("h0", "acceptor")
        pkg_bytes = hub.repository.package_bytes("Counter")
        result = hub.orb.sync(acceptor.install(pkg_bytes))
        assert result == "Counter 1.0.0"
        assert h0.repository.is_installed("Counter")
        assert hub.orb.sync(acceptor.is_installed("Counter", ">=1.0"))
        fetched = hub.orb.sync(acceptor.fetch("Counter", ""))
        assert ComponentPackage(fetched).name == "Counter"
        assert hub.orb.sync(acceptor.installed_names()) == ["Counter"]

    def test_acceptor_rejects_garbage(self, rig):
        hub = rig.node("hub")
        acceptor = hub.service_stub("h0", "acceptor")
        with pytest.raises(InstallError):
            hub.orb.sync(acceptor.install(b"not a package"))

    def test_acceptor_fetch_missing(self, rig):
        hub = rig.node("hub")
        acceptor = hub.service_stub("h0", "acceptor")
        with pytest.raises(NotInstalled):
            hub.orb.sync(acceptor.fetch("Ghost", ""))

    def test_resource_manager_remote(self, rig):
        hub = rig.node("hub")
        rm = hub.service_stub("h0", "resources")
        snap = ResourceSnapshot.from_value(hub.orb.sync(rm.snapshot()))
        assert snap.host == "h0"
        assert hub.orb.sync(rm.fits(10.0, 10.0, 0.0))
        assert not hub.orb.sync(rm.fits(1e9, 0.0, 0.0))


class TestLocalResolver:
    def test_prefers_running_instance(self):
        r = star_rig(1)
        hub = r.node("hub")
        hub.install_package(counter_package())
        inst = hub.container.create_instance("Counter")
        ior = r.run(until=hub.request_component(COUNTER_IFACE.repo_id))
        assert ior == inst.ports.facet("value").ior
        assert len(hub.container) == 1  # no second instance

    def test_instantiates_installed_provider(self):
        r = star_rig(1)
        hub = r.node("hub")
        hub.install_package(counter_package())
        ior = r.run(until=hub.request_component(COUNTER_IFACE.repo_id))
        assert ior is not None
        assert len(hub.container) == 1

    def test_unknown_interface_fails(self):
        r = star_rig(1)
        with pytest.raises(TRANSIENT):
            r.run(until=r.node("hub").request_component("IDL:none:1.0"))

    def test_dispatch_charges_resource_manager(self):
        r = star_rig(1)
        hub = r.node("hub")
        hub.install_package(counter_package())
        inst = hub.container.create_instance("Counter")
        stub = r.node("h0").orb.stub(inst.ports.facet("value").ior,
                                     COUNTER_IFACE)
        before = hub.resources.cpu_seconds_charged
        r.node("h0").orb.sync(stub.read())
        assert hub.resources.cpu_seconds_charged > before

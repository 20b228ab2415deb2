"""Tests for applications-as-bootstrap-components (§2.4.4)."""

import pytest

from repro.deployment.application import Deployer, DeploymentError
from repro.deployment.bootstrap import application_package
from repro.deployment.planner import RuntimePlanner
from repro.node.acceptor import ComponentAcceptorServant
from repro.sim.topology import SERVER, clustered, star
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)


def pair_assembly():
    return AssemblyDescriptor(
        name="pair",
        instances=[AssemblyInstance("a", "Counter"),
                   AssemblyInstance("b", "Counter")],
        connections=[AssemblyConnection("a", "peer", "b", "value")])


def node_deployer(rig, host):
    """A deployer holding only *host*'s node, as a bootstrap builds it."""
    node = rig.node(host)
    return Deployer({host: node}, RuntimePlanner())


@pytest.fixture
def rig():
    r = SimRig(star(3, hub_profile=SERVER))
    r.node("hub").install_package(counter_package(cpu_units=50.0))
    return r


class TestNetworkDeployer:
    """A deployer holding one node reaches every other host over the
    wire: its registry, acceptor and container agent."""

    def test_deploys_using_only_remote_services(self, rig):
        # the deployer lives on h2, which has nothing installed locally
        deployer = node_deployer(rig, "h2")
        app = rig.run(until=deployer.deploy(pair_assembly()))
        assert set(app.placement) == {"a", "b"}
        # the wiring is live
        host_a = app.placement["a"]
        inst = rig.node(host_a).container.find_instance(
            app.instance_id("a"))
        stub = inst.executor.context.connection("peer")
        assert rig.node(host_a).orb.sync(stub.increment(3)) == 3

    def test_unknown_component_surfaces_bootstrap_error(self, rig):
        deployer = node_deployer(rig, "h2")
        assembly = AssemblyDescriptor(
            name="bad", instances=[AssemblyInstance("x", "Ghost")])
        with pytest.raises(DeploymentError):
            rig.run(until=deployer.deploy(assembly))

    def test_dead_source_host_is_skipped(self):
        r = SimRig(clustered(1, 4))  # full mesh: no single choke point
        r.node("c0h0").install_package(counter_package(cpu_units=50.0))
        r.node("c0h1").install_package(counter_package(cpu_units=50.0))
        r.topology.set_host_state("c0h0", alive=False)
        deployer = node_deployer(r, "c0h3")
        app = r.run(until=deployer.deploy(pair_assembly()))
        assert all(h != "c0h0" for h in app.placement.values())

    def test_repair_fetches_from_a_live_source(self, monkeypatch):
        # c0h0 sourced the deploy; once it dies, the package must come
        # from c0h1, which holds it too
        r = SimRig(clustered(1, 4))
        r.node("c0h0").install_package(counter_package(cpu_units=50.0))
        r.node("c0h1").install_package(counter_package(cpu_units=50.0))
        deployer = node_deployer(r, "c0h3")
        app = r.run(until=deployer.deploy(pair_assembly()))
        assert app.placement == {"a": "c0h0", "b": "c0h1"}
        fetched_from = []
        fetch = ComponentAcceptorServant.fetch

        def spy(servant, component, versions):
            fetched_from.append(servant.node.host_id)
            return fetch(servant, component, versions)
        monkeypatch.setattr(ComponentAcceptorServant, "fetch", spy)
        r.topology.set_host_state("c0h0", alive=False)
        r.run(until=app.repair("a", "c0h2"))
        assert fetched_from == ["c0h1"]
        assert app.placement["a"] == "c0h2"
        assert r.node("c0h2").container.find_instance(
            app.instance_id("a")) is not None
        # the stale incarnation on the dead host waits for the sweep
        assert deployer.orphans == [("c0h0", app.instance_id("a"))]

    def test_teardown_files_an_orphan_for_a_dead_host(self, rig):
        deployer = node_deployer(rig, "h2")
        app = rig.run(until=deployer.deploy(pair_assembly()))
        assert app.placement == {"a": "hub", "b": "hub"}
        rig.topology.set_host_state("hub", alive=False)
        rig.run(until=app.teardown())
        assert app.torn_down
        assert deployer.orphans == [("hub", app.instance_id("a")),
                                    ("hub", app.instance_id("b"))]

    def test_migrate_refuses_a_host_the_deployer_does_not_hold(self, rig):
        deployer = node_deployer(rig, "h2")
        app = rig.run(until=deployer.deploy(pair_assembly()))
        assert app.placement["a"] == "hub"
        with pytest.raises(DeploymentError, match="'hub'"):
            rig.run(until=app.migrate("a", "h1"))
        # refused before anything moved
        assert app.placement["a"] == "hub"
        assert rig.node("hub").container.find_instance(
            app.instance_id("a")) is not None


class TestBootstrapComponent:
    def test_application_package_roundtrips(self, rig):
        pkg = application_package(pair_assembly())
        assert pkg.name == "app-pair"
        # the assembly travels inside the binary payload
        assert b"assembly" in pkg.binary_payload("linux", "x86",
                                                 "corba-lc")

    def test_instance_creation_deploys_the_application(self, rig):
        hub = rig.node("hub")
        hub.install_package(application_package(pair_assembly()))
        bootstrap = hub.container.create_instance("app-pair")
        rig.run(until=rig.env.now + 2.0)
        app = bootstrap.executor.application
        assert bootstrap.executor.deploy_error is None
        assert app is not None
        assert set(app.placement) == {"a", "b"}
        # the deployed instances really exist on their hosts
        for name in ("a", "b"):
            host = app.placement[name]
            assert rig.node(host).container.find_instance(
                app.instance_id(name)) is not None

    def test_bootstrap_can_run_on_a_bare_node(self, rig):
        """Install the app component on a node with no other packages;
        the assembly's components are found over the network."""
        h1 = rig.node("h1")
        h1.install_package(application_package(pair_assembly()))
        bootstrap = h1.container.create_instance("app-pair")
        rig.run(until=rig.env.now + 2.0)
        assert bootstrap.executor.deploy_error is None
        assert bootstrap.executor.application is not None

    def test_destroying_bootstrap_tears_down_the_application(self, rig):
        hub = rig.node("hub")
        hub.install_package(application_package(pair_assembly()))
        bootstrap = hub.container.create_instance("app-pair")
        rig.run(until=rig.env.now + 2.0)
        app = bootstrap.executor.application
        hub.container.destroy_instance(bootstrap.instance_id)
        rig.run(until=rig.env.now + 2.0)
        assert app.torn_down
        for host in rig.nodes:
            for inst in rig.node(host).container.instances():
                assert not inst.instance_id.startswith("pair.")

    def test_failed_deployment_recorded_not_raised(self, rig):
        assembly = AssemblyDescriptor(
            name="bad", instances=[AssemblyInstance("x", "Ghost")])
        hub = rig.node("hub")
        hub.install_package(application_package(assembly))
        bootstrap = hub.container.create_instance("app-bad")
        rig.run(until=rig.env.now + 3.0)
        assert bootstrap.executor.application is None
        assert isinstance(bootstrap.executor.deploy_error,
                          DeploymentError)

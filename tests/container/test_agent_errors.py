"""Error-path tests for the Container Agent and deployer edges."""

import pytest

from repro.container.agent import (
    AgentError,
    dumps_state,
    loads_state,
)
from repro.deployment.application import DeploymentError, Deployer
from repro.deployment.planner import RuntimePlanner
from repro.orb.exceptions import NO_RESOURCES
from repro.testing import counter_package, star_rig


@pytest.fixture
def rig():
    r = star_rig(2)
    r.node("hub").install_package(counter_package())
    return r


class TestStateCodec:
    def test_roundtrip(self):
        state = {"count": 3, "items": [1, "two", 3.0],
                 "nested": {"k": b"bytes"}}
        assert loads_state(dumps_state(state)) == state

    def test_empty_state(self):
        assert loads_state(dumps_state({})) == {}


class TestAgentErrorPaths:
    def agent(self, rig, host="hub"):
        return rig.node("h0").service_stub(host, "container")

    def test_create_unknown_component(self, rig):
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(
                self.agent(rig).create_instance("Ghost", "", ""))

    def test_create_without_resources_raises_no_resources(self, rig):
        rig.node("hub").install_package(
            counter_package(name="Huge", memory_mb=1e6))
        with pytest.raises(NO_RESOURCES):
            rig.node("h0").orb.sync(
                self.agent(rig).create_instance("Huge", "", ""))

    def test_destroy_unknown_instance(self, rig):
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(
                self.agent(rig).destroy_instance("ghost"))

    def test_connect_unknown_instance(self, rig):
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(self.agent(rig).connect(
                "ghost", "peer", "IOR:IDL:x:1.0@hub/a/k"))

    def test_connect_bad_ior_string(self, rig):
        inst = rig.node("hub").container.create_instance("Counter")
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(self.agent(rig).connect(
                inst.instance_id, "peer", "not-an-ior"))

    def test_subscribe_unknown_instance(self, rig):
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(self.agent(rig).subscribe(
                "ghost", "pokes", "IOR:IDL:x:1.0@hub/events/k"))

    def test_get_state_unknown_instance(self, rig):
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(self.agent(rig).get_state("ghost"))

    def test_get_set_state_roundtrip_remote(self, rig):
        inst = rig.node("hub").container.create_instance("Counter")
        inst.executor.count = 5
        agent = self.agent(rig)
        orb = rig.node("h0").orb
        blob = orb.sync(agent.get_state(inst.instance_id))
        assert loads_state(blob) == {"count": 5, "pokes_seen": 0}
        orb.sync(agent.set_state(inst.instance_id,
                                 dumps_state({"count": 9})))
        assert inst.executor.count == 9

    def test_incarnate_duplicate_id_rejected(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter",
                                             requested_name="taken")
        with pytest.raises(AgentError):
            rig.node("h0").orb.sync(self.agent(rig).incarnate(
                "Counter", "", "taken", dumps_state({}), [], []))


class TestDeployerEdges:
    def test_empty_nodes_rejected(self):
        with pytest.raises(DeploymentError):
            Deployer({}, RuntimePlanner())

    def test_application_event_kind_lookup_error(self, rig):
        from repro.xmlmeta.descriptors import (
            AssemblyDescriptor, AssemblyInstance)
        dep = Deployer(rig.nodes, RuntimePlanner(),
                       coordinator_host="hub")
        app = rig.run(until=dep.deploy(AssemblyDescriptor(
            name="a", instances=[AssemblyInstance("x", "Counter")])))
        with pytest.raises(DeploymentError):
            app._event_kind("x", "no-such-port")
        with pytest.raises(DeploymentError):
            app.facet_ior("x", "no-such-facet")

    def test_connections_to_filters(self, rig):
        from repro.xmlmeta.descriptors import (
            AssemblyConnection, AssemblyDescriptor, AssemblyInstance)
        dep = Deployer(rig.nodes, RuntimePlanner(),
                       coordinator_host="hub")
        asm = AssemblyDescriptor(
            name="a",
            instances=[AssemblyInstance("x", "Counter"),
                       AssemblyInstance("y", "Counter")],
            connections=[AssemblyConnection("x", "peer", "y", "value")])
        app = rig.run(until=dep.deploy(asm))
        assert [c.from_instance for c in app.connections_to("y")] == ["x"]
        assert app.connections_to("x") == []
        assert app.placement["x"] in rig.nodes

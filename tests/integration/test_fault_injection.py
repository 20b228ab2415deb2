"""Failure injection across subsystem boundaries.

Crashes, partitions and restarts at the worst moments: mid-migration,
mid-deployment, mid-query.  The invariant is never "nothing fails" but
"failures are contained": exceptions are typed, resources don't leak,
and recovery follows the paper's soft-state story.
"""

import pytest

from repro.container.migration import MigrationEngine, MigrationError
from repro.deployment import Deployer, RuntimePlanner
from repro.deployment.application import DeploymentError
from repro.orb.exceptions import SystemException, TIMEOUT, TRANSIENT
from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
)
from repro.sim.faults import FaultInjector
from repro.sim.topology import clustered, star
from repro.testing import (
    COUNTER_IFACE,
    SimRig,
    counter_package,
    star_rig,
)
from repro.xmlmeta.descriptors import (
    AssemblyDescriptor,
    AssemblyInstance,
)


class TestMigrationFaults:
    def test_target_crash_during_migration_times_out_cleanly(self):
        rig = star_rig(2, seed=40)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        inst = hub.container.create_instance("Counter")
        inst.executor.count = 42

        # kill the target while the package is in flight
        engine = MigrationEngine(hub)
        hub.orb.default_timeout = 2.0
        ev = engine.migrate(inst.instance_id, "h0")
        rig.run(until=rig.env.now + 0.0005)
        rig.topology.set_host_state("h0", alive=False)
        with pytest.raises((MigrationError, SystemException)):
            rig.run(until=ev)
        # the source's resource books were never corrupted: either the
        # instance is still here (rollback) or fully evicted
        committed = hub.resources.cpu_committed
        assert committed in (0.0, 5.0)

    def test_source_crash_kills_migration_but_not_simulation(self):
        rig = star_rig(2, seed=41)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        inst = hub.container.create_instance("Counter")
        hub.orb.default_timeout = 2.0
        ev = MigrationEngine(hub).migrate(inst.instance_id, "h0")
        ev.defused()  # driver gave up watching; crash should not blow up
        rig.run(until=rig.env.now + 0.0005)
        rig.topology.set_host_state("hub", alive=False)
        rig.run(until=rig.env.now + 30.0)  # no exception escapes


class TestDeploymentFaults:
    def test_host_crash_during_deploy_surfaces_typed_error(self):
        rig = star_rig(3, seed=42)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        hub.orb.default_timeout = 2.0

        from repro.deployment.planner import PlannerBase

        class PinToH1(PlannerBase):
            def plan(self, assembly, views, qos_of):
                return {i.name: "h1" for i in assembly.instances}

        dep = Deployer(rig.nodes, PinToH1(), coordinator_host="hub")
        assembly = AssemblyDescriptor(
            name="doomed",
            instances=[AssemblyInstance(f"i{k}", "Counter")
                       for k in range(6)])
        ev = dep.deploy(assembly)
        # let view gathering finish, then kill the placement target
        rig.run(until=rig.env.now + 0.02)
        rig.topology.set_host_state("h1", alive=False)
        with pytest.raises((SystemException, DeploymentError)):
            rig.run(until=ev)

    def test_teardown_with_dead_host_skips_it(self):
        rig = star_rig(3, seed=43)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        assembly = AssemblyDescriptor(
            name="app",
            instances=[AssemblyInstance(f"i{k}", "Counter")
                       for k in range(4)])
        app = rig.run(until=dep.deploy(assembly))
        victims = {h for h in app.placement.values() if h != "hub"}
        victim = sorted(victims)[0]
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=app.teardown())  # must not raise
        assert app.torn_down
        live_hosts = [h for h in rig.nodes if rig.topology.host(h).alive]
        for host in live_hosts:
            assert len(rig.node(host).container) == 0


class TestRegistryPartitions:
    def deploy(self, seed=44):
        rig = SimRig(clustered(2, 4), seed=seed)
        rig.node("c0h3").install_package(counter_package(name="CompA"))
        rig.node("c1h3").install_package(counter_package(name="CompB"))
        cfg = RegistryConfig(update_interval=2.0, replicas=2,
                             query_timeout=1.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())
        return rig, dr

    def test_partition_isolates_but_local_service_continues(self):
        rig, dr = self.deploy()
        injector = FaultInjector(rig.env, rig.topology)
        cuts = injector.partition(
            [h for h in rig.topology.host_ids() if h.startswith("c0")],
            [h for h in rig.topology.host_ids() if h.startswith("c1")])
        rig.run(until=rig.env.now + 10.0)
        # in-cluster resolution still works on both sides
        ior_a = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior_a.host_id.startswith("c0")
        ior_b = rig.run(until=rig.node("c1h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior_b.host_id.startswith("c1")

    def test_partition_heal_restores_cross_cluster_queries(self):
        rig, dr = self.deploy(seed=45)
        # remove c0's provider so c0 queries MUST cross the partition
        node = rig.node("c0h3")
        node.repository.remove(
            "CompA", node.repository.lookup("CompA").version)
        rig.run(until=rig.env.now + 5.0)

        injector = FaultInjector(rig.env, rig.topology)
        cuts = injector.partition(
            [h for h in rig.topology.host_ids() if h.startswith("c0")],
            [h for h in rig.topology.host_ids() if h.startswith("c1")])
        rig.run(until=rig.env.now + 8.0)
        with pytest.raises(SystemException):
            rig.run(until=rig.node("c0h1").request_component(
                COUNTER_IFACE.repo_id))

        injector.heal_partition(cuts)
        # give the hierarchy a few update rounds to re-learn c1's offer
        rig.run(until=rig.env.now + 8.0)
        ior = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior.host_id.startswith("c1")

    @pytest.mark.faults
    def test_registry_converges_after_flaps(self):
        # Reports lost to a flapping uplink are repaired by later ones.
        rig = SimRig(star(3), seed=13)
        hosts = ["h0", "h1", "h2"]
        dr = DistributedRegistry(rig.nodes,
                                 RegistryConfig(update_interval=1.0))
        dr.deploy({"g": hosts})
        injector = FaultInjector(rig.env, rig.topology)

        def flap():
            for t in (1.0, 2.6, 4.4):
                yield rig.env.timeout(t - rig.env.now)
                injector.cut_link("h1", "hub")
                yield rig.env.timeout(0.6)
                injector.heal_link("h1", "hub")

        rig.env.process(flap())
        rig.run(until=dr.settle_time() + 8.0)
        agent = dr.groups["g"].agents[0]
        assert sorted(agent.members) == hosts


class TestEventFaults:
    def test_consumer_host_crash_does_not_break_channel(self):
        rig = star_rig(2, seed=46)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        inst = hub.container.create_instance("Counter")

        from repro.orb.services.events import (
            CallbackPushConsumer, EVENT_CHANNEL_IFACE)
        got = []
        consumer = CallbackPushConsumer(lambda a: got.append(a.value))
        h0 = rig.node("h0")
        cons_ior = h0.orb.adapter("root").activate(consumer)
        chan = hub.events.channel_ior("demo.tick")
        h0.orb.sync(h0.orb.stub(chan, EVENT_CHANNEL_IFACE)
                    .connect_push_consumer(cons_ior))

        stub = hub.orb.stub(inst.ports.facet("value").ior, COUNTER_IFACE)
        hub.orb.sync(stub.increment(1))
        rig.run(until=rig.env.now + 1.0)
        assert got == [1]

        # consumer dies; further pushes are oneway drops, no crash
        rig.topology.set_host_state("h0", alive=False)
        hub.orb.sync(stub.increment(1))
        rig.run(until=rig.env.now + 1.0)
        assert got == [1]
        # and a still-healthy producer keeps serving reads
        assert hub.orb.sync(stub.read()) == 2

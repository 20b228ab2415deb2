"""End-to-end self-healing under churn (§2.4.3).

A replicated, supervised assembly rides out a scripted storm of host
crashes, restarts and one network partition.  The invariant is the
paper's: "spurious node failures and node disconnections (and
re-connections)" are survived *gracefully* — every instance ends up
incarnated on a live host, connections are re-wired, the replica
primary stays fenced onto a live member, and nothing leaks.
"""

import pytest

from repro.container.replication import ReplicaManager
from repro.deployment import (
    ApplicationSupervisor,
    Deployer,
    RuntimePlanner,
)
from repro.sim.faults import ChurnModel, FaultInjector
from repro.sim.topology import SERVER, star
from repro.testing import SimRig, counter_package
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)

pytestmark = pytest.mark.faults


def assembly():
    return AssemblyDescriptor(
        name="app",
        instances=[AssemblyInstance(f"i{k}", "Counter") for k in range(4)],
        connections=[AssemblyConnection("i0", "peer", "i1", "value"),
                     AssemblyConnection("i2", "peer", "i3", "value")])


class TestChurnRecovery:
    def test_every_instance_survives_scripted_churn(self):
        rig = SimRig(star(4, leaf_profile=SERVER), seed=7)
        hub = rig.node("hub")
        hub.install_package(counter_package(cpu_units=50.0))
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(assembly()))
        manager = ReplicaManager(hub)
        group = rig.run(until=manager.create_group(
            "Counter", ["h0", "h1", "h2"]))
        sup = ApplicationSupervisor(dep, interval=2.0)
        sup.watch_group(group, manager)

        injector = FaultInjector(rig.env, rig.topology)
        # staggered crash/restart cycles, never the coordinator hub
        injector.outages([("h0", 10.0, 18.0),
                          ("h1", 30.0, 18.0),
                          ("h2", 50.0, 12.0)])
        # plus one transient partition that isolates h3 and heals

        def partition():
            yield rig.env.timeout(70.0 - rig.env.now)
            cuts = injector.partition(
                ["h3"], [h for h in rig.topology.host_ids() if h != "h3"])
            yield rig.env.timeout(6.0)
            injector.heal_partition(cuts)

        rig.env.process(partition())
        rig.run(until=100.0)
        sup.stop()

        # every instance ended up incarnated on a live host
        for name, host in app.placement.items():
            assert rig.topology.host(host).alive
            inst = rig.node(host).container.find_instance(
                app.instance_id(name))
            assert inst is not None
        # connections were re-wired: calls flow end to end again
        for user, provider in (("i0", "i1"), ("i2", "i3")):
            uhost = app.placement[user]
            uinst = rig.node(uhost).container.find_instance(
                app.instance_id(user))
            receptacle = uinst.ports.receptacle("peer")
            assert receptacle.connected
            assert receptacle.peer.host_id == app.placement[provider]
            stub = uinst.executor.context.connection("peer")
            assert isinstance(rig.node(uhost).orb.sync(stub.increment(1)),
                              int)
        # the watched group's primary was fenced onto a live member
        assert rig.topology.host(group.primary.host).alive
        # recoveries actually happened and every stale orphan got swept
        assert rig.metrics.get("supervisor.recoveries") >= 1
        assert rig.metrics.get("supervisor.promotions") >= 1
        assert dep.orphans == []

    def test_supervisor_survives_random_churn(self):
        rig = SimRig(star(3, leaf_profile=SERVER), seed=11)
        hub = rig.node("hub")
        hub.install_package(counter_package(cpu_units=100.0))
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        rig.run(until=dep.deploy(assembly()))
        sup = ApplicationSupervisor(dep, interval=2.0, checkpoint=False)
        injector = FaultInjector(rig.env, rig.topology)
        ChurnModel(rig.env, injector, rig.rngs,
                   hosts=["h0", "h1", "h2"],
                   mean_uptime=20.0, mean_downtime=6.0,
                   protected=["hub"])
        # random crashes land mid-recovery and mid-rewire; the
        # background loop may not die of an unhandled exception
        rig.run(until=80.0)
        assert sup.loop.alive
        sup.stop()

"""Tests for the ApplicationSupervisor self-healing loop."""

import pytest

from repro.container.replication import ReplicaManager
from repro.deployment import (
    ApplicationSupervisor,
    Deployer,
    RuntimePlanner,
)
from repro.deployment.planner import PlannerBase
from repro.obs import RECOVERY_LATENCY_HIST
from repro.registry.groups import DistributedRegistry, RegistryConfig
from repro.sim.topology import DESKTOP, SERVER, star
from repro.testing import SimRig, counter_package
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)


def assembly(n, connections=()):
    return AssemblyDescriptor(
        name="app",
        instances=[AssemblyInstance(f"i{k}", "Counter") for k in range(n)],
        connections=list(connections))


class PinPlanner(PlannerBase):
    """Deterministic initial placement for crash scenarios."""

    def __init__(self, pins):
        self.pins = dict(pins)

    def plan(self, assembly, views, qos_of):
        return {i.name: self.pins[i.name] for i in assembly.instances}


@pytest.fixture
def rig():
    r = SimRig(star(3, hub_profile=SERVER))
    r.node("hub").install_package(counter_package(cpu_units=50.0))
    return r


class TestOrphanSweep:
    def test_teardown_orphans_recorded_and_swept_on_restart(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(assembly(4)))
        victim = sorted(h for h in app.placement.values() if h != "hub")[0]
        victim_ids = {app.instance_id(n) for n, h in app.placement.items()
                      if h == victim}
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=app.teardown())
        assert app.torn_down
        # pre-fix, teardown silently forgot these: the instances (and
        # their resource reservations) leaked forever on restart
        assert set(dep.orphans) == {(victim, i) for i in victim_ids}
        assert len(rig.node(victim).container) == len(victim_ids)

        sup = ApplicationSupervisor(dep, interval=1000.0, checkpoint=False)
        rig.topology.set_host_state(victim, alive=True)
        rig.run(until=sup.run_once())
        assert dep.orphans == []
        assert len(rig.node(victim).container) == 0
        assert rig.node(victim).resources.cpu_committed == 0.0
        assert rig.metrics.get("supervisor.orphans_swept") == len(victim_ids)
        sup.stop()

    def test_sweep_waits_for_host_to_return(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(assembly(3)))
        victim = sorted(h for h in app.placement.values() if h != "hub")[0]
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=app.teardown())
        n_orphans = len(dep.orphans)
        assert n_orphans >= 1
        sup = ApplicationSupervisor(dep, interval=1000.0, checkpoint=False)
        rig.run(until=sup.run_once())       # host still down: nothing swept
        assert len(dep.orphans) == n_orphans
        sup.stop()


class TestStrandedRecovery:
    def deploy(self, rig, dep):
        asm = assembly(2, connections=[
            AssemblyConnection("i0", "peer", "i1", "value")])
        return rig.run(until=dep.deploy(asm))

    def test_replanned_with_checkpointed_state_and_rewired(self, rig):
        dep = Deployer(rig.nodes, PinPlanner({"i0": "hub", "i1": "h0"}),
                       coordinator_host="hub")
        app = self.deploy(rig, dep)
        dep.planner = RuntimePlanner()      # recovery replans by load
        sup = ApplicationSupervisor(dep, interval=2.0)
        rig.node("h0").container.find_instance(
            app.instance_id("i1")).executor.count = 7
        rig.run(until=rig.env.now + 3.0)    # one checkpoint pass
        assert sup.checkpoints[app.instance_id("i1")]["count"] == 7

        rig.topology.set_host_state("h0", alive=False)
        rig.run(until=rig.env.now + 6.0)
        new_host = app.placement["i1"]
        assert new_host != "h0"
        assert rig.topology.host(new_host).alive
        moved = rig.node(new_host).container.find_instance(
            app.instance_id("i1"))
        assert moved.executor.count == 7    # checkpoint restored
        # i0's receptacle was re-aimed at the new incarnation
        inst0 = rig.node("hub").container.find_instance(
            app.instance_id("i0"))
        assert inst0.ports.receptacle("peer").peer.host_id == new_host
        stub = inst0.executor.context.connection("peer")
        assert rig.node("hub").orb.sync(stub.increment(1)) == 8
        assert rig.metrics.get("supervisor.recoveries") == 1
        assert sup.recoveries and sup.recoveries[0].kind == "replan"
        # the stale incarnation is queued for destruction on h0's return
        assert ("h0", app.instance_id("i1")) in dep.orphans
        rig.topology.set_host_state("h0", alive=True)
        rig.run(until=rig.env.now + 4.0)
        assert dep.orphans == []
        assert len(rig.node("h0").container) == 0
        sup.stop()

    def test_recovery_emits_span_and_latency_histogram(self, rig):
        obs = rig.observe()
        dep = Deployer(rig.nodes, PinPlanner({"i0": "hub", "i1": "h0"}),
                       coordinator_host="hub")
        app = self.deploy(rig, dep)
        dep.planner = RuntimePlanner()
        sup = ApplicationSupervisor(dep, interval=2.0, checkpoint=False)
        rig.topology.set_host_state("h0", alive=False)
        rig.run(until=rig.env.now + 6.0)
        spans = [s for s in obs.tracer.spans
                 if s.name == "supervisor.recover"]
        assert spans and spans[0].status == "ok"
        assert spans[0].attrs["instance"] == "i1"
        hist = rig.metrics.find_histogram(RECOVERY_LATENCY_HIST)
        assert hist is not None and hist.count == 1
        assert app.placement["i1"] != "h0"
        sup.stop()


class TestGroupPromotion:
    def test_supervisor_promotes_and_fences_watched_group(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        manager = ReplicaManager(rig.node("hub"))
        group = rig.run(until=manager.create_group(
            "Counter", ["h0", "h1", "h2"]))
        sup = ApplicationSupervisor(dep, interval=2.0, checkpoint=False)
        sup.watch_group(group, manager)

        def exec_of(member):
            return rig.node(member.host).container.find_instance(
                member.instance_id).executor

        exec_of(group.members[0]).count = 5
        rig.run(until=manager.sync(group))
        rig.topology.set_host_state("h0", alive=False)
        rig.run(until=rig.env.now + 5.0)
        assert group.primary.host == "h1"
        assert group.epoch == 1
        assert rig.metrics.get("supervisor.promotions") == 1
        assert any(r.kind == "promote" for r in sup.recoveries)

        exec_of(group.members[1]).count = 77
        rig.topology.set_host_state("h0", alive=True)
        rig.run(until=manager.sync(group))
        # the restarted ex-primary was fenced and resynced, not obeyed
        assert group.primary.host == "h1"
        assert exec_of(group.members[0]).count == 77
        assert exec_of(group.members[2]).count == 77
        sup.stop()


class TestGracefulDegradation:
    def test_no_capacity_queues_recovery_with_backoff(self):
        r = SimRig(star(2, hub_profile=DESKTOP, leaf_profile=SERVER))
        r.node("hub").install_package(counter_package(cpu_units=500.0))
        dep = Deployer(r.nodes, RuntimePlanner(), coordinator_host="hub")
        app = r.run(until=dep.deploy(assembly(1)))
        first = app.placement["i0"]
        assert first != "hub"               # 500 units never fit the hub
        other = "h1" if first == "h0" else "h0"
        sup = ApplicationSupervisor(dep, interval=2.0, checkpoint=False)
        r.topology.set_host_state(first, alive=False)
        r.topology.set_host_state(other, alive=False)
        r.run(until=r.env.now + 10.0)
        # nowhere to go: the recovery is queued and retried, not dropped
        assert r.metrics.get("supervisor.stranded") == 1
        assert r.metrics.get("supervisor.recovery.deferred") >= 2
        assert r.metrics.get("supervisor.recoveries") == 0
        assert app.placement["i0"] == first

        r.topology.set_host_state(other, alive=True)
        r.run(until=r.env.now + 20.0)       # backoff expires, then heals
        assert app.placement["i0"] == other
        assert r.metrics.get("supervisor.recoveries") == 1
        assert sup.recoveries[0].attempts >= 2
        sup.stop()


class TestRegistryLiveness:
    def test_detection_waits_for_soft_state_timeout(self):
        r = SimRig(star(3, hub_profile=SERVER))
        r.node("hub").install_package(counter_package(cpu_units=50.0))
        dr = DistributedRegistry(r.nodes, RegistryConfig(update_interval=1.0))
        dr.deploy({"g0": list(r.topology.host_ids())})
        r.run(until=dr.settle_time())
        dep = Deployer(r.nodes, PinPlanner({"i0": "hub", "i1": "h0"}),
                       coordinator_host="hub")
        app = r.run(until=dep.deploy(assembly(
            2, connections=[AssemblyConnection("i0", "peer", "i1", "value")])))
        dep.planner = RuntimePlanner()
        sup = ApplicationSupervisor(dep, interval=0.5, checkpoint=False,
                                    registry=dr)
        t0 = r.env.now
        r.topology.set_host_state("h0", alive=False)
        r.run(until=t0 + 1.4)
        # the MRM has not missed enough reports yet: still believed alive
        assert r.metrics.get("supervisor.stranded") == 0
        assert app.placement["i1"] == "h0"
        r.run(until=t0 + 12.0)
        # soft-state timeout expired -> stranded -> recovered
        assert r.metrics.get("supervisor.stranded") == 1
        assert r.metrics.get("supervisor.recoveries") == 1
        assert app.placement["i1"] != "h0"
        sup.stop()


class TestStoppedForGood:
    """``stop()`` ends a coordinator-bound loop for good, and the
    loop's life follows the coordinator host — both by construction of
    :class:`~repro.sim.hostloop.HostLoop`."""

    def test_coordinator_restart_does_not_revive_stopped_supervisor(
            self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        rig.run(until=dep.deploy(assembly(3)))
        sup = ApplicationSupervisor(dep, interval=1.0)
        rig.run(until=rig.env.now + 3.5)
        assert rig.metrics.get("supervisor.checkpoints") > 0
        sup.stop()
        rig.run(until=rig.env.now + 1.0)    # a tick in flight drains
        ticks = rig.metrics.get("supervisor.checkpoints")
        rig.topology.set_host_state("hub", alive=False)
        rig.run(until=rig.env.now + 2.0)
        rig.topology.set_host_state("hub", alive=True)
        rig.run(until=rig.env.now + 5.0)
        # pre-fix the leaked restart hook started a fresh loop here
        assert rig.metrics.get("supervisor.checkpoints") == ticks
        assert not sup.loop.alive

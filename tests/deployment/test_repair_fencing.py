"""Supervisor repair fencing under partition/restart flaps (chaos PR).

Found by the chaos harness: a host crash queues a recovery, planning
takes (simulated) time, and if the host heals — or another pass
repairs the instance — *while planning is in flight*, the old code
incarnated a second copy anyway: a duplicate instance with rolled-back
state, plus an orphan pointing at the live original.

Repairs are now fenced by the application's per-instance incarnation
epoch, re-checked at the last yield before incarnating; a superseded
repair aborts cleanly (``supervisor.repair.fenced``), never counting
as a failure or leaving debris.
"""

import pytest

from repro.deployment import ApplicationSupervisor, Deployer, RuntimePlanner
from repro.deployment.application import RepairSuperseded
from repro.sim.faults import FaultInjector
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


def deployed_rig(seed=31):
    rig = SimRig(star(4, leaf_profile=SERVER), seed=seed)
    rig.node("hub").install_package(counter_package(cpu_units=50.0))
    dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
    app = rig.run(until=dep.deploy(assembly()))
    return rig, dep, app


def instance_copies(rig, app, name):
    """Live hosts holding an incarnation of *name*."""
    iid = app.instance_id(name)
    return [h for h in rig.topology.host_ids()
            if rig.topology.host(h).alive
            and rig.node(h).container.find_instance(iid) is not None]


class TestRepairFencing:
    def test_concurrent_repair_is_fenced_by_epoch(self):
        """A competing repair bumps the incarnation epoch mid-plan;
        the stale repair must abort instead of double-incarnating."""
        rig, dep, app = deployed_rig()
        sup = ApplicationSupervisor(dep, interval=1000.0,
                                    checkpoint=False)
        sup.stop()      # drive ticks by hand
        victim = next(name for name, host in app.placement.items()
                      if host != "hub")
        dead_host = app.placement[victim]
        injector = FaultInjector(rig.env, rig.topology)
        injector.crash_host(dead_host)

        # Simulate the competing recovery finishing first: bump the
        # incarnation epoch shortly after the tick begins planning.
        def competing():
            yield rig.env.timeout(0.001)
            app.incarnations[victim] = app.incarnation(victim) + 1
        rig.env.process(competing())
        rig.run(until=sup.run_once())

        assert rig.metrics.get("supervisor.repair.fenced") >= 1
        # The fenced repair incarnated nothing anywhere.
        assert instance_copies(rig, app, victim) == []
        assert app.placement[victim] == dead_host
        assert dep.orphans == []

    def test_host_healing_mid_plan_fences_repair(self):
        """The 'dead' host restarts while planning is in flight: its
        container still holds the authoritative instance, so the
        repair must stand down (pre-fix: duplicate incarnation)."""
        rig, dep, app = deployed_rig(seed=32)
        sup = ApplicationSupervisor(dep, interval=1000.0,
                                    checkpoint=False)
        sup.stop()
        victim = next(name for name, host in app.placement.items()
                      if host != "hub")
        dead_host = app.placement[victim]
        injector = FaultInjector(rig.env, rig.topology)
        injector.crash_host(dead_host)
        injector.restart_at(rig.env.now + 0.001, dead_host)
        rig.run(until=sup.run_once())

        assert rig.metrics.get("supervisor.repair.fenced") >= 1
        assert app.placement[victim] == dead_host
        # Exactly one incarnation: the original, back on its host.
        assert instance_copies(rig, app, victim) == [dead_host]
        assert dep.orphans == []

    def test_successful_repair_bumps_incarnation_epoch(self):
        rig, dep, app = deployed_rig(seed=33)
        sup = ApplicationSupervisor(dep, interval=1000.0,
                                    checkpoint=False)
        sup.stop()
        victim = next(name for name, host in app.placement.items()
                      if host != "hub")
        dead_host = app.placement[victim]
        before = app.incarnation(victim)
        injector = FaultInjector(rig.env, rig.topology)
        injector.crash_host(dead_host)
        rig.run(until=sup.run_once())

        assert app.incarnation(victim) == before + 1
        new_host = app.placement[victim]
        assert new_host != dead_host
        assert instance_copies(rig, app, victim) == [new_host]
        assert rig.metrics.get("supervisor.recoveries") >= 1

    def test_repair_superseded_is_clean_abort_type(self):
        from repro.deployment.application import DeploymentError
        assert issubclass(RepairSuperseded, DeploymentError)


def stranded_rig(seed):
    """A deployed rig with one instance's host freshly crashed and a
    hand-driven supervisor."""
    rig, dep, app = deployed_rig(seed=seed)
    sup = ApplicationSupervisor(dep, interval=1000.0, checkpoint=False)
    sup.stop()
    victim = next(name for name, host in app.placement.items()
                  if host != "hub")
    injector = FaultInjector(rig.env, rig.topology)
    injector.crash_host(app.placement[victim])
    return rig, dep, app, sup, victim, injector


class TestLostIncarnateReply:
    """Chaos seed 139: a repair whose ``incarnate`` *executed* but whose
    reply never arrived is "maybe created".  Pre-fix nothing recorded
    the copy, the retry landed on another host, and the duplicate lived
    for ever."""

    def test_copy_behind_a_lost_reply_is_swept(self):
        rig, dep, app, sup, victim, injector = stranded_rig(seed=34)
        dead_host = app.placement[victim]
        iid = app.instance_id(victim)
        lost_on = []

        def cut_reply_path(host):
            # The container has executed ``incarnate`` by the time it
            # announces the instance; its reply then finds no route.
            def listener(action, instance):
                if (action == "created" and instance.instance_id == iid
                        and not lost_on):
                    injector.cut_link("hub", host)
                    lost_on.append(host)
            return listener
        for host in rig.topology.host_ids():
            if host != "hub":
                rig.node(host).container.listeners.append(
                    cut_reply_path(host))

        rig.run(until=sup.run_once())
        (leaked,) = lost_on
        assert app.placement[victim] == dead_host       # repair failed ...
        assert instance_copies(rig, app, victim) == [leaked]    # ... yet
        assert (leaked, iid) in dep.orphans

        # The retry cannot reach the leaked copy's host and lands
        # elsewhere; once the link heals the sweep destroys the copy.
        rig.run(until=rig.env.now + sup.backoff_cap)
        rig.run(until=sup.run_once())
        new_host = app.placement[victim]
        assert new_host not in (dead_host, leaked)
        injector.heal_link("hub", leaked)
        rig.run(until=sup.run_once())
        assert instance_copies(rig, app, victim) == [new_host]
        assert dep.orphans == [(dead_host, iid)]

    def test_retry_onto_the_same_host_is_not_swept_away(self):
        """A "maybe" filed by a failed attempt must not outlive a later
        *successful* incarnation on that same host."""
        from repro.orb.exceptions import SystemException, TRANSIENT
        rig, dep, app, sup, victim, _ = stranded_rig(seed=35)
        dead_host = app.placement[victim]
        iid = app.instance_id(victim)
        target = next(h for h in rig.topology.host_ids()
                      if h not in ("hub", dead_host))
        servant = rig.node(target).orb.adapter("node").servant_for("container")
        real = servant.incarnate

        def refuse_once(*args):
            servant.incarnate = real
            raise TRANSIENT("refused before anything was created")
        servant.incarnate = refuse_once

        with pytest.raises(SystemException):
            rig.run(until=app.repair(victim, target))
        assert dep.orphans == [(target, iid)]
        rig.run(until=app.repair(victim, target))
        assert dep.orphans == [(dead_host, iid)]
        rig.run(until=sup.run_once())
        assert instance_copies(rig, app, victim) == [target]

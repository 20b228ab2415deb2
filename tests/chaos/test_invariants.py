"""Invariant monitors: all-green on a healthy world, and each one
actually fires when its property is broken."""

import pytest

from repro.chaos import (
    MID,
    QUIESCENCE,
    build_world,
    default_monitors,
    probe_monitor,
)
from repro.chaos.invariants import (
    ControlLoopsAliveMonitor,
    FederatedResolvableMonitor,
    MembershipConvergenceMonitor,
    NoOrphanInstancesMonitor,
    SinglePrimaryMonitor,
)


def probe(world, monitor, phase):
    return world.rig.run_process(probe_monitor(monitor, world, phase))


@pytest.fixture(scope="module")
def healthy_world():
    world = build_world(seed=301)
    world.rig.run(until=world.rig.env.now + 5.0)
    return world


class TestHealthyWorldIsGreen:
    def test_all_monitors_pass_mid_campaign(self, healthy_world):
        for monitor in default_monitors():
            ok, detail = probe(healthy_world, monitor, MID)
            assert ok, f"{monitor.name} failed on healthy world: {detail}"

    def test_all_monitors_pass_at_quiescence(self, healthy_world):
        world = build_world(seed=302)
        world.rig.run(until=world.rig.env.now + 5.0)
        world.stop_clients()
        world.rig.run(until=world.rig.env.now + 6.0)
        for monitor in default_monitors():
            ok, detail = probe(world, monitor, QUIESCENCE)
            assert ok, f"{monitor.name} failed at quiescence: {detail}"


class TestMonitorsDetectBreakage:
    def test_orphan_is_flagged_at_quiescence_only(self):
        world = build_world(seed=303)
        monitor = NoOrphanInstancesMonitor()
        world.deployer.orphans.append(("chaos-app", "i9", "c9h9"))
        ok_mid, _ = probe(world, monitor, MID)
        assert ok_mid                       # lenient while faults fly
        ok, detail = probe(world, monitor, QUIESCENCE)
        assert not ok and "orphan" in detail

    def test_membership_divergence_flagged(self):
        world = build_world(seed=304)
        monitor = MembershipConvergenceMonitor()
        # Crash a host and probe *immediately*: membership still lists
        # it, so ground truth and the gossiped view disagree.
        world.injector.crash_host("c2h2")
        ok, detail = probe(world, monitor, QUIESCENCE)
        assert not ok and "diverged" in detail

    def test_rigged_primary_designation_flagged(self):
        world = build_world(seed=305)
        monitor = SinglePrimaryMonitor()
        world.group.primary_id = "nobody"
        ok, detail = probe(world, monitor, MID)
        assert not ok and "designated" in detail

    def test_member_ahead_of_group_epoch_flagged(self):
        world = build_world(seed=306)
        monitor = SinglePrimaryMonitor()
        world.group.members[-1].epoch = world.group.epoch + 5
        ok, detail = probe(world, monitor, MID)
        assert not ok and "ahead of group epoch" in detail

    def test_unresolvable_provider_flagged(self):
        world = build_world(seed=307)
        monitor = FederatedResolvableMonitor(ttl_bound=6.0)
        # Fabricate ground truth the registry cannot know about by
        # pretending a second host runs the provider.
        import repro.chaos.invariants as inv
        real = inv._running_ground_truth
        try:
            inv._running_ground_truth = (
                lambda w: real(w) | {"c2h0"})
            ok, detail = probe(world, monitor, QUIESCENCE)
        finally:
            inv._running_ground_truth = real
        assert not ok and "unresolvable" in detail

    def test_loop_out_of_step_with_its_host_flagged_both_ways(self):
        world = build_world(seed=308)
        monitor = ControlLoopsAliveMonitor()
        assert probe(world, monitor, MID)[0]
        # never none: a reporter's loop gone on a live host
        host, reporter = next(iter(world.federation.reporters.items()))
        reporter.loop.stop()
        ok, detail = probe(world, monitor, MID)
        assert not ok and f"reporter:{host}" in detail
        # never two: an owner's loop still running though its host is
        # down (the host "crashes" without its hooks being told)
        world = build_world(seed=308)
        host, agent = next(iter(world.federation.agents.items()))
        agent.loop.host.alive = False
        ok, detail = probe(world, monitor, MID)
        assert not ok and f"agent:{host}" in detail

    def test_strictness_split(self):
        strict = {m.name for m in default_monitors() if m.strict_mid}
        assert strict == {"loops.alive", "replica.single_primary"}

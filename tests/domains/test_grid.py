"""Tests for grid computing: idle harvesting, volunteers, Monte-Carlo π."""

import math

import pytest

from repro.container.aggregation import AggregationCoordinator
from repro.grid import (
    IdleMonitor,
    MonteCarloPiExecutor,
    VolunteerAgent,
    VolunteerMaster,
    montecarlo_package,
)
from repro.grid.worker import count_hits
from repro.sim.topology import SERVER, star
from repro.testing import SimRig, star_rig


class TestIdleMonitor:
    def make(self, seed=1, **kw):
        rig = star_rig(1, seed=seed)
        node = rig.node("h0")
        mon = IdleMonitor(node, rig.rngs.stream("idle"), **kw)
        return rig, node, mon

    def test_starts_idle_with_free_cpu(self):
        rig, node, mon = self.make()
        assert mon.is_idle
        assert node.resources.cpu_committed == 0.0

    def test_busy_reserves_user_cpu(self):
        rig, node, mon = self.make(mean_idle=5.0, mean_busy=5.0)
        rig.run(until=200.0)
        assert mon.transitions > 5
        if not mon.idle:
            assert node.resources.cpu_committed > 0
        else:
            assert node.resources.cpu_committed == 0.0

    def test_listeners_called_on_transitions(self):
        rig, node, mon = self.make(mean_idle=5.0, mean_busy=5.0)
        events = []
        mon.listeners.append(lambda m, idle: events.append(idle))
        rig.run(until=100.0)
        assert len(events) == mon.transitions
        # alternating states
        for a, b in zip(events, events[1:]):
            assert a != b

    def test_dead_host_not_idle(self):
        rig, node, mon = self.make()
        rig.topology.set_host_state("h0", alive=False)
        assert not mon.is_idle

    def test_deterministic(self):
        def run(seed):
            rig, node, mon = self.make(seed=seed, mean_idle=3.0,
                                       mean_busy=3.0)
            rig.run(until=100.0)
            return mon.transitions
        assert run(4) == run(4)


class TestMonteCarloComponent:
    def test_count_hits_estimates_pi(self):
        hits = count_hits(200_000, seed=0)
        assert 4.0 * hits / 200_000 == pytest.approx(math.pi, abs=0.02)

    def test_split_covers_budget(self):
        ex = MonteCarloPiExecutor()
        ex.total_samples = 10_001
        ex.base_seed = 5
        shards = ex.split(4)
        assert sum(s["samples"] for s in shards) == 10_001
        assert len({s["seed"] for s in shards}) == 4

    def test_merge(self):
        ex = MonteCarloPiExecutor()
        partials = [{"samples": 1000, "hits": 780},
                    {"samples": 1000, "hits": 790}]
        assert ex.merge(partials) == pytest.approx(4 * 1570 / 2000)
        assert math.isnan(ex.merge([]))

    def test_aggregation_coordinator_runs_pi(self):
        rig = star_rig(4, hub_profile=SERVER)
        rig.node("hub").install_package(montecarlo_package())
        result = rig.run(until=AggregationCoordinator(rig.node("hub")).run(
            "MonteCarloPi", ["h0", "h1", "h2", "h3"],
            {"total_samples": 100_000, "base_seed": 1}))
        assert result == pytest.approx(math.pi, abs=0.05)


class TestVolunteerComputing:
    def make_pool(self, n=5, seed=2, mean_busy=15.0, mean_idle=30.0):
        rig = SimRig(star(n, hub_profile=SERVER), seed=seed)
        hub = rig.node("hub")
        hub.install_package(montecarlo_package())
        master = VolunteerMaster(hub, "MonteCarloPi", shard_timeout=30.0)
        monitors = []
        for i in range(n):
            node = rig.node(f"h{i}")
            mon = IdleMonitor(node, rig.rngs.stream(f"idle.{i}"),
                              mean_busy=mean_busy, mean_idle=mean_idle)
            VolunteerAgent(node, mon, master.ior)
            monitors.append(mon)
        return rig, hub, master, monitors

    def test_completes_and_is_correct(self):
        rig, hub, master, monitors = self.make_pool()
        shards = [{"samples": 50_000, "seed": i} for i in range(12)]
        partials = rig.run(until=master.submit(shards))
        assert len(partials) == 12
        pi = MonteCarloPiExecutor.merge_values(partials)
        assert pi == pytest.approx(math.pi, abs=0.03)

    def test_requeues_on_volunteer_crash(self):
        rig, hub, master, monitors = self.make_pool(
            n=3, mean_busy=1e9, mean_idle=1e9)  # no user churn
        shards = [{"samples": 400_000, "seed": i} for i in range(6)]
        done = master.submit(shards)
        rig.run(until=rig.env.now + 0.5)  # let assignments start
        rig.topology.set_host_state("h1", alive=False)
        partials = rig.run(until=done)
        assert len(partials) == 6
        assert master.requeues >= 1

    def test_volunteer_lost_while_idle_is_dropped(self):
        rig, hub, master, monitors = self.make_pool(
            n=3, mean_busy=1e9, mean_idle=1e9)  # no user churn
        rig.run(until=rig.env.now + 0.5)  # registrations arrive
        assert master.volunteers == {"h0", "h1", "h2"}
        rig.topology.set_host_state("h2", alive=False)
        shards = [{"samples": 50_000, "seed": i} for i in range(6)]
        partials = rig.run(until=master.submit(shards))
        assert len(partials) == 6
        pi = MonteCarloPiExecutor.merge_values(partials)
        assert pi == pytest.approx(math.pi, abs=0.03)
        assert master.volunteers == {"h0", "h1"}
        assert master.requeues >= 1

    def test_busy_volunteers_get_no_new_shards(self):
        rig, hub, master, monitors = self.make_pool(
            n=2, mean_busy=1e9, mean_idle=1e9)
        # force h1 busy before any work
        monitors[1]._set_idle(False)
        shards = [{"samples": 10_000, "seed": i} for i in range(4)]
        rig.run(until=master.submit(shards))
        assert "h1" not in master.workers

    def test_pending_units_reported(self):
        rig, hub, master, monitors = self.make_pool(n=2)
        stub = rig.node("h0").orb.stub(master.ior,
                                       master._servant._interface)
        assert rig.node("h0").orb.sync(stub.pending_units()) == 0

    def test_more_volunteers_finish_faster(self):
        def elapsed(n):
            rig, hub, master, monitors = self.make_pool(
                n=n, mean_busy=1e9, mean_idle=1e9, seed=3)
            shards = [{"samples": 200_000, "seed": i} for i in range(8)]
            t0 = rig.env.now
            rig.run(until=master.submit(shards))
            return rig.env.now - t0
        assert elapsed(8) < elapsed(2) / 2

"""Unit tests for RNG streams, metrics, and fault injection."""

import numpy as np
import pytest

from repro.sim.faults import ChurnModel, FaultInjector
from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry, derived_stream
from repro.sim.stats import Counter, Gauge, MetricRegistry
from repro.sim.topology import line, star


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngRegistry(42).stream("x").random(10)
        b = RngRegistry(42).stream("x").random(10)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        reg = RngRegistry(42)
        a = reg.stream("x").random(10)
        b = reg.stream("y").random(10)
        assert not np.allclose(a, b)

    def test_creation_order_irrelevant(self):
        r1 = RngRegistry(7)
        r1.stream("a")
        x1 = r1.stream("b").random(5)
        r2 = RngRegistry(7)
        x2 = r2.stream("b").random(5)  # "a" never created
        assert np.allclose(x1, x2)

    def test_stream_is_cached(self):
        reg = RngRegistry(0)
        assert reg.stream("s") is reg.stream("s")

    def test_derived_stream_matches_registry(self):
        a = derived_stream("x", 42).random(10)
        b = RngRegistry(42).stream("x").random(10)
        assert np.allclose(a, b)

    def test_derived_stream_reproducible(self):
        assert np.allclose(derived_stream("grid.count_hits", 3).random(8),
                           derived_stream("grid.count_hits", 3).random(8))

    def test_derived_stream_names_independent(self):
        assert not np.allclose(derived_stream("x", 3).random(8),
                               derived_stream("y", 3).random(8))

    def test_fork_differs_from_parent(self):
        reg = RngRegistry(5)
        forked = reg.fork(1)
        assert not np.allclose(
            reg.stream("x").random(5), forked.stream("x").random(5)
        )


class TestStats:
    def test_counter_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_summaries(self):
        g = Gauge("depth")
        for v in (1.0, 3.0, 2.0):
            g.record(v)
        assert g.count == 3
        assert g.last == 2.0
        assert g.max() == 3.0
        assert g.mean() == 2.0

    def test_empty_gauge_is_nan(self):
        g = Gauge("depth")
        assert g.count == 0
        assert np.isnan(g.mean())
        assert np.isnan(g.max())
        assert np.isnan(g.last)

    def test_gauge_memory_is_constant(self):
        # The point of the gauge over the sample list it replaced: a
        # level sampled on every request keeps four scalars, for ever.
        g = Gauge("depth")
        assert not hasattr(g, "__dict__")
        for i in range(10_000):
            g.record(i % 7)
        assert all(isinstance(getattr(g, slot), (int, float, str))
                   for slot in Gauge.__slots__)
        assert (g.count, g.last, g.max()) == (10_000, 9_999 % 7, 6)
        assert g.mean() == pytest.approx(sum(i % 7 for i in range(10_000))
                                         / 10_000)

    def test_registry_reuses_instances(self):
        m = MetricRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("g") is m.gauge("g")

    def test_labelled_counters(self):
        m = MetricRegistry()
        m.add_labelled("bytes", "l1", 10)
        m.add_labelled("bytes", "l1", 5)
        m.add_labelled("bytes", "l2", 1)
        assert m.labelled("bytes") == {"l1": 15.0, "l2": 1.0}
        assert m.labelled("missing") == {}

    def test_snapshot_includes_series_means(self):
        m = MetricRegistry()
        m.counter("c").inc(4)
        m.gauge("s").record(2.0)
        snap = m.snapshot()
        assert snap["c"] == 4.0
        assert snap["s.mean"] == 2.0


class TestFaultInjector:
    def test_scheduled_crash_and_restart(self):
        env = Environment()
        topo = star(2)
        inj = FaultInjector(env, topo)
        inj.crash_at(5.0, "h0")
        inj.restart_at(10.0, "h0")
        env.run(until=6.0)
        assert not topo.host("h0").alive
        env.run(until=11.0)
        assert topo.host("h0").alive
        assert [e[1] for e in inj.log] == ["crash", "restart"]

    def test_past_fault_time_rejected(self):
        env = Environment()
        env.run(until=5.0)
        inj = FaultInjector(env, star(1))
        with pytest.raises(ValueError):
            inj.crash_at(1.0, "h0")

    def test_partition_cuts_crossing_links_only(self):
        env = Environment()
        topo = line(4)  # h0-h1-h2-h3
        inj = FaultInjector(env, topo)
        cuts = inj.partition(["h0", "h1"], ["h2", "h3"])
        assert cuts == [("h1", "h2")]
        assert topo.route("h0", "h3") is None
        assert topo.route("h0", "h1") is not None
        inj.heal_partition(cuts)
        assert topo.route("h0", "h3") is not None

    def test_partition_skips_already_cut(self):
        env = Environment()
        topo = line(2)
        inj = FaultInjector(env, topo)
        inj.cut_link("h0", "h1")
        cuts = inj.partition(["h0"], ["h1"])
        assert cuts == []


class TestChurn:
    def test_churn_crashes_and_restarts(self):
        env = Environment()
        topo = star(4)
        inj = FaultInjector(env, topo)
        churn = ChurnModel(env, inj, RngRegistry(1), topo.host_ids(),
                           mean_uptime=10.0, mean_downtime=2.0,
                           protected=["hub"])
        env.run(until=200.0)
        assert churn.crashes > 0
        assert churn.restarts > 0
        # protected host never crashed
        assert all(target != "hub" for _, kind, target in inj.log)

    def test_churn_deterministic(self):
        def run(seed):
            env = Environment()
            topo = star(3)
            inj = FaultInjector(env, topo)
            ChurnModel(env, inj, RngRegistry(seed), topo.host_ids(),
                       mean_uptime=5.0, mean_downtime=1.0)
            env.run(until=100.0)
            return inj.log
        assert run(9) == run(9)

"""Tests for migration, replication and aggregation."""

import pytest

from repro.container.aggregation import (
    AggregationCoordinator,
    AggregationError,
)
from repro.container.migration import MigrationEngine, MigrationError
from repro.container.replication import ReplicaManager, ReplicationError
from repro.testing import COUNTER_IFACE, counter_package, star_rig

from tests.oracles.sumworker import sum_worker_package


@pytest.fixture
def rig():
    r = star_rig(3)
    r.node("hub").install_package(counter_package())
    return r


class TestMigration:
    def test_state_travels(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        inst.executor.count = 123
        info = rig.run(until=MigrationEngine(hub).migrate(
            inst.instance_id, "h1"))
        assert info.host == "h1"
        new_inst = rig.node("h1").container.find_instance(info.instance_id)
        assert new_inst.executor.count == 123
        assert hub.container.find_instance(inst.instance_id) is None

    def test_package_ships_when_target_lacks_component(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        assert not rig.node("h1").repository.is_installed("Counter")
        rig.run(until=MigrationEngine(hub).migrate(inst.instance_id, "h1"))
        assert rig.node("h1").repository.is_installed("Counter")
        assert rig.metrics.get("migration.package_bytes") > 0

    def test_older_version_ships_its_own_package(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        hub.install_package(counter_package("2.0.0"))
        info = rig.run(until=MigrationEngine(hub).migrate(
            inst.instance_id, "h1"))
        assert info.host == "h1"
        assert [str(c.version) for c in
                rig.node("h1").repository.classes()] == ["1.0.0"]

    def test_no_reinstall_when_target_has_component(self, rig):
        hub = rig.node("hub")
        rig.node("h1").install_package(counter_package())
        inst = hub.container.create_instance("Counter")
        rig.run(until=MigrationEngine(hub).migrate(inst.instance_id, "h1"))
        assert rig.metrics.get("migration.package_bytes") == 0

    def test_receptacle_wiring_preserved(self, rig):
        hub = rig.node("hub")
        a = hub.container.create_instance("Counter")
        b = hub.container.create_instance("Counter")
        hub.container.connect(a.instance_id, "peer",
                              b.ports.facet("value").ior)
        info = rig.run(until=MigrationEngine(hub).migrate(
            a.instance_id, "h2"))
        moved = rig.node("h2").container.find_instance(info.instance_id)
        assert moved.ports.receptacle("peer").peer.host_id == "hub"

    def test_resources_move_between_hosts(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        rig.run(until=MigrationEngine(hub).migrate(inst.instance_id, "h1"))
        assert hub.resources.cpu_committed == 0.0
        assert rig.node("h1").resources.cpu_committed == 5.0

    def test_pinned_component_refuses(self, rig):
        hub = rig.node("hub")
        hub.install_package(counter_package(name="Pinned",
                                            mobility="pinned"))
        inst = hub.container.create_instance("Pinned")
        with pytest.raises(MigrationError):
            rig.run(until=MigrationEngine(hub).migrate(
                inst.instance_id, "h1"))

    def test_migration_to_same_host_rejected(self, rig):
        hub = rig.node("hub")
        inst = hub.container.create_instance("Counter")
        with pytest.raises(MigrationError):
            rig.run(until=MigrationEngine(hub).migrate(
                inst.instance_id, "hub"))

    def test_unknown_instance_rejected(self, rig):
        with pytest.raises(MigrationError):
            rig.run(until=MigrationEngine(rig.node("hub")).migrate(
                "ghost", "h1"))

    def test_rollback_when_target_lacks_resources(self):
        r = star_rig(1)
        hub = r.node("hub")
        # big enough to fit on the hub but not on a desktop leaf
        hub.install_package(counter_package(memory_mb=1024.0))
        inst = hub.container.create_instance("Counter")
        inst.executor.count = 7
        with pytest.raises(MigrationError):
            r.run(until=MigrationEngine(hub).migrate(inst.instance_id, "h0"))
        # restored locally with state intact
        restored = hub.container.find_instance(inst.instance_id)
        assert restored is not None
        assert restored.executor.count == 7
        assert r.metrics.get("migration.rollbacks") == 1.0


class TestReplication:
    def test_group_creation_across_hosts(self, rig):
        group = rig.run(until=ReplicaManager(rig.node("hub")).create_group(
            "Counter", ["hub", "h0", "h1"]))
        assert [m.host for m in group.members] == ["hub", "h0", "h1"]
        assert all(m.facet_ior is not None for m in group.members)
        assert group.mode == "coordinated"

    def test_non_replicable_rejected(self, rig):
        hub = rig.node("hub")
        hub.install_package(counter_package(name="Solo",
                                            replication="none"))
        with pytest.raises(ReplicationError):
            rig.run(until=ReplicaManager(hub).create_group(
                "Solo", ["hub", "h0"]))

    def test_failover_selection(self, rig):
        hub = rig.node("hub")
        group = rig.run(until=ReplicaManager(hub).create_group(
            "Counter", ["hub", "h0"]))

        def up(host):
            return rig.topology.host(host).alive
        assert group.select_primary(up).host == "hub"
        rig.topology.set_host_state("hub", alive=False)
        assert group.select_primary(up).host == "h0"
        rig.topology.set_host_state("h0", alive=False)
        with pytest.raises(ReplicationError):
            group.select_primary(up)

    def test_coordinated_sync_pushes_state(self, rig):
        hub = rig.node("hub")
        manager = ReplicaManager(hub)
        group = rig.run(until=manager.create_group("Counter",
                                                   ["hub", "h0", "h1"]))
        primary = hub.container.find_instance(group.members[0].instance_id)
        primary.executor.count = 55
        synced = rig.run(until=manager.sync(group, lambda host: True))
        assert synced == 2
        backup = rig.node("h0").container.find_instance(
            group.members[1].instance_id)
        assert backup.executor.count == 55

    def test_sync_requires_coordinated_mode(self, rig):
        hub = rig.node("hub")
        hub.install_package(counter_package(name="StatelessC",
                                            replication="stateless"))
        manager = ReplicaManager(hub)
        group = rig.run(until=manager.create_group("StatelessC", ["hub"]))
        with pytest.raises(ReplicationError):
            rig.run(until=manager.sync(group, lambda host: True))


class TestAggregation:
    @pytest.fixture
    def agg_rig(self):
        r = star_rig(4)
        r.node("hub").install_package(sum_worker_package())
        return r

    def test_scatter_gather_correct(self, agg_rig):
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        result = agg_rig.run(until=coordinator.run(
            "SumWorker", ["h0", "h1", "h2", "h3"],
            {"lo": 0, "hi": 10_000, "cost_per_item": 0.001}))
        assert result == sum(range(10_000))

    def test_workers_cleaned_up(self, agg_rig):
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        agg_rig.run(until=coordinator.run(
            "SumWorker", ["h0", "h1"], {"lo": 0, "hi": 100}))
        assert all(len(agg_rig.node(h).container) == 0
                   for h in ("h0", "h1"))

    def test_parallelism_beats_single_worker(self, agg_rig):
        work = {"lo": 0, "hi": 40_000, "cost_per_item": 0.01}

        def elapsed(hosts):
            r = star_rig(4)
            r.node("hub").install_package(sum_worker_package())
            t0 = r.env.now
            r.run(until=AggregationCoordinator(r.node("hub")).run(
                "SumWorker", hosts, dict(work)))
            return r.env.now - t0

        t1 = elapsed(["h0"])
        t4 = elapsed(["h0", "h1", "h2", "h3"])
        assert t4 < t1 / 2.5  # near-linear speedup

    def test_worker_crash_rerun_on_survivor(self, agg_rig):
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        ev = coordinator.run("SumWorker", ["h0", "h1"],
                             {"lo": 0, "hi": 40_000,
                              "cost_per_item": 0.05})
        # kill one worker mid-computation
        agg_rig.env.run(until=agg_rig.env.now + 1.0)
        agg_rig.topology.set_host_state("h1", alive=False)
        result = agg_rig.run(until=ev)
        assert result == sum(range(40_000))
        assert agg_rig.metrics.get("aggregation.reruns") >= 1

    @staticmethod
    def count_destroys(rig, monkeypatch) -> list:
        orb = rig.node("hub").orb
        invoke, calls = orb.invoke, []

        def counting(ior, odef, args, **kw):
            if odef.name == "destroy_instance":
                calls.append(args[0])
            return invoke(ior, odef, args, **kw)

        monkeypatch.setattr(orb, "invoke", counting)
        return calls

    def test_survivor_lost_after_its_shard_moves_rerun_on(self, agg_rig,
                                                         monkeypatch):
        # h1 dies mid-shard; h0 returns its shard, then dies before the
        # re-run reaches it.  The re-run call into h0 fails, h0 is
        # dropped, and h2 runs the shard.
        destroyed = self.count_destroys(agg_rig, monkeypatch)
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        ev = coordinator.run("SumWorker", ["h0", "h1", "h2"],
                             {"lo": 0, "hi": 40_000,
                              "cost_per_item": 0.05})
        agg_rig.env.run(until=agg_rig.env.now + 1.0)
        agg_rig.topology.set_host_state("h1", alive=False)
        agg_rig.env.run(until=agg_rig.env.now + 10.0)   # shards returned
        agg_rig.topology.set_host_state("h0", alive=False)
        result = agg_rig.run(until=ev)
        assert result == sum(range(40_000))
        assert agg_rig.metrics.get("aggregation.reruns") == 1
        # Lost workers are not called again; h2, whose calls all
        # returned, is torn down.
        assert len(destroyed) == 1
        assert len(agg_rig.node("h2").container) == 0

    def test_every_worker_lost_raises(self, agg_rig, monkeypatch):
        destroyed = self.count_destroys(agg_rig, monkeypatch)
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        ev = coordinator.run("SumWorker", ["h0", "h1"],
                             {"lo": 0, "hi": 40_000,
                              "cost_per_item": 0.05})
        agg_rig.env.run(until=agg_rig.env.now + 1.0)
        t0 = agg_rig.env.now
        for host in ("h0", "h1"):
            agg_rig.topology.set_host_state(host, alive=False)
        with pytest.raises(AggregationError, match="all workers failed"):
            agg_rig.run(until=ev)
        # the scatter's own deadline ends it (the rig's 30 s default)
        assert agg_rig.env.now - t0 <= 31.0
        assert destroyed == []

    def test_worker_host_down_at_setup_reruns_its_shard(self, agg_rig):
        # h1 is down before the run: its placement call fails, h0 runs
        # both shards, and h0's worker is torn down.
        agg_rig.topology.set_host_state("h1", alive=False)
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        result = agg_rig.run(until=coordinator.run(
            "SumWorker", ["h0", "h1"], {"lo": 0, "hi": 10_000}))
        assert result == sum(range(10_000))
        assert agg_rig.metrics.get("aggregation.reruns") == 1
        assert len(agg_rig.node("h0").container) == 0

    def test_every_worker_host_down_at_setup_raises(self, agg_rig,
                                                    monkeypatch):
        destroyed = self.count_destroys(agg_rig, monkeypatch)
        for host in ("h0", "h1"):
            agg_rig.topology.set_host_state(host, alive=False)
        coordinator = AggregationCoordinator(agg_rig.node("hub"))
        with pytest.raises(AggregationError, match="all workers failed"):
            agg_rig.run(until=coordinator.run(
                "SumWorker", ["h0", "h1"], {"lo": 0, "hi": 100}))
        assert destroyed == []
        assert all(len(agg_rig.node(h).container) == 0
                   for h in ("h0", "h1"))

    def test_non_aggregatable_rejected(self, agg_rig):
        agg_rig.node("hub").install_package(counter_package())
        with pytest.raises(AggregationError):
            agg_rig.run(until=AggregationCoordinator(
                agg_rig.node("hub")).run("Counter", ["h0"], {}))

"""Federated registry: ring, records, gossip, churn (PR 8)."""

import pytest

from repro.registry.federation import (
    FederatedRegistry,
    FederationConfig,
    HostBeacon,
    MembershipTable,
    ProviderRecord,
    RecordStore,
    ShardRing,
)
from repro.registry.federation.shard import FULL_SYNC_EVERY
from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
)
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.util.errors import ConfigurationError

from tests.oracles.federation import add_owner


def record(repo_id="IDL:demo/X:1.0", host="h0", epoch=1.0, **kw):
    base = dict(repo_id=repo_id, host=host, component="X", version="1.0",
                running_ior="", mobility="mobile", free_cpu=100.0,
                free_memory=256.0, is_tiny=False, epoch=epoch)
    base.update(kw)
    return ProviderRecord(**base)


class TestShardRing:
    def build(self, n=8, vnodes=32):
        ring = ShardRing(vnodes=vnodes)
        for i in range(n):
            ring.stage_add(f"h{i}")
        ring.rebalance()
        return ring

    def test_lookup_is_deterministic(self):
        a, b = self.build(), self.build()
        for key in ("IDL:demo/A:1.0", "IDL:demo/B:1.0", "host:h3"):
            assert a.owners(key, 3) == b.owners(key, 3)

    def test_owners_are_distinct_hosts(self):
        ring = self.build(n=4)
        owners = ring.owners("IDL:demo/A:1.0", 3)
        assert len(owners) == len(set(owners)) == 3

    def test_replication_capped_by_population(self):
        ring = self.build(n=2)
        assert len(ring.owners("k", 5)) == 2

    def test_membership_is_staged_until_rebalance(self):
        ring = self.build(n=4)
        before = ring.owners("IDL:demo/A:1.0", 2)
        ring.stage_add("h99")
        assert ring.pending
        assert ring.owners("IDL:demo/A:1.0", 2) == before
        assert "h99" not in ring
        ring.rebalance()
        assert not ring.pending
        assert "h99" in ring

    def test_rebalance_moves_a_bounded_fraction(self):
        """Consistent hashing: dropping one of n owners moves ~1/n of
        the keyspace, nowhere near a full reshuffle."""
        ring = self.build(n=8)
        ring.stage_remove("h3")
        report = ring.rebalance()
        assert report.removed == ("h3",)
        assert 0.0 < report.moved_fraction < 0.35
        # Keys not owned by h3 kept their owner.
        assert "h3" not in ring

    def test_load_spreads_over_owners(self):
        ring = self.build(n=8, vnodes=64)
        keys = [f"IDL:demo/C{i}:1.0" for i in range(400)]
        split = {host: 0 for host in ring.hosts()}
        for key in keys:
            split[ring.primary(key)] += 1
        assert sum(split.values()) == 400
        assert all(count > 0 for count in split.values())
        assert max(split.values()) < 4 * (400 // 8)

    def test_membership_errors(self):
        ring = self.build(n=2)
        with pytest.raises(ConfigurationError):
            ring.stage_add("h0")            # already present
        with pytest.raises(ConfigurationError):
            ring.stage_remove("h42")        # never added
        with pytest.raises(ConfigurationError):
            ShardRing(vnodes=0)
        empty = ShardRing()
        with pytest.raises(ConfigurationError):
            empty.owners("k")


class TestRecordMerge:
    def test_higher_epoch_wins(self):
        store = RecordStore()
        assert store.apply(record(epoch=1.0), now=1.0)
        assert store.apply(record(epoch=2.0, free_cpu=50.0), now=2.0)
        assert not store.apply(record(epoch=1.5), now=3.0)
        (rec,) = store.lookup("IDL:demo/X:1.0")
        assert rec.free_cpu == 50.0

    def test_merge_is_order_independent(self):
        a, b = RecordStore(), RecordStore()
        recs = [record(epoch=e) for e in (3.0, 1.0, 2.0)]
        for r in recs:
            a.apply(r, now=0.0)
        for r in reversed(recs):
            b.apply(r, now=0.0)
        assert a.lookup("IDL:demo/X:1.0") == b.lookup("IDL:demo/X:1.0")

    def test_epoch_tie_broken_by_host_id(self):
        older = record(host="ha", epoch=5.0)
        newer = record(host="hb", epoch=5.0)
        assert newer.beats(older)
        assert not older.beats(newer)
        tie = HostBeacon("hb", 5.0, alive=False)
        assert tie.beats(HostBeacon("ha", 5.0, alive=True))

    def test_retired_records_hidden_from_lookup(self):
        store = RecordStore()
        store.apply(record(epoch=1.0), now=1.0)
        store.apply(record(epoch=2.0, retired=True), now=2.0)
        assert store.lookup("IDL:demo/X:1.0") == []

    def test_sweep_drops_stale_records(self):
        """A live record goes when its host was not heard (whatever its
        epoch), a tombstone when it is dated before the cutoff."""
        store = RecordStore()
        store.apply(record(host="h0", epoch=5.0))
        store.apply(record(host="h1", epoch=1.0))
        store.apply(record(repo_id="IDL:demo/Y:1.0", host="h1", epoch=1.0,
                           retired=True))
        store.apply(record(repo_id="IDL:demo/Z:1.0", host="h1", epoch=3.0,
                           retired=True))
        assert store.sweep(cutoff=2.0,
                           live=lambda rec: rec.host == "h1") == 2
        assert len(store) == 2
        assert {r.host for r in store.lookup("IDL:demo/X:1.0")} == {"h1"}
        assert [r.epoch for r in store.records() if r.retired] == [3.0]

    def test_membership_liveness_window(self):
        table = MembershipTable()
        table.apply(HostBeacon("h0", 10.0, alive=True))
        table.apply(HostBeacon("h1", 2.0, alive=True))
        table.apply(HostBeacon("h2", 10.0, alive=False))
        assert table.live_owners(now=12.0, timeout=5.0) == ["h0"]
        assert table.live_owners(now=12.0, timeout=15.0) == ["h0", "h1"]
        table.mark_dead("h0", now=13.0)
        assert table.live_owners(now=13.0, timeout=5.0) == []

    def test_membership_silent_scan_and_owner_plane(self):
        """What a gossip round reads: the owner plane as beacons, and
        the silent owners (alive ones only), in learned order."""
        table = MembershipTable()
        stale_owner = HostBeacon("h3", 1.0, alive=True)
        dead_owner = HostBeacon("h0", 1.0, alive=False)
        fresh_owner = HostBeacon("h1", 9.0, alive=True)
        other_stale = HostBeacon("h2", 2.0, alive=True)
        for beacon in (stale_owner, dead_owner, fresh_owner, other_stale):
            table.apply(beacon)
        assert table.owner_beacons() == [stale_owner, dead_owner,
                                         fresh_owner, other_stale]
        assert table.owner_beacons(since=2.0) == [fresh_owner, other_stale]
        assert table.silent(cutoff=5.0) == ["h3", "h2"]
        assert table.silent(cutoff=1.0) == []


def federated_rig(seed=120, hosts=8, provider="c0h1", **cfg_kw):
    cfg_kw.setdefault("owners", 3)
    cfg_kw.setdefault("replication", 2)
    cfg_kw.setdefault("update_interval", 2.0)
    cfg_kw.setdefault("gossip_interval", 1.0)
    rig = SimRig(clustered(1, hosts), seed=seed)
    rig.node(provider).install_package(counter_package())
    fed = FederatedRegistry(rig.nodes, FederationConfig(**cfg_kw))
    fed.deploy()
    return rig, fed


class TestFederationEndToEnd:
    def test_resolve_through_shard_neighborhood(self):
        rig, fed = federated_rig()
        rig.run(until=fed.settle_time())
        ior = rig.run(until=fed.resolvers["c0h7"].resolve(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c0h1"

    def test_records_live_only_on_their_owners(self):
        rig, fed = federated_rig()
        rig.run(until=fed.settle_time() + 8.0)
        owners = set(fed.ring.owners(COUNTER_IFACE.repo_id,
                                     fed.config.replication))
        for host, agent in fed.agents.items():
            found = agent.store.lookup(COUNTER_IFACE.repo_id)
            if host in owners:
                assert [r.host for r in found] == ["c0h1"]
            else:
                assert found == []

    def test_running_instance_is_reused(self):
        rig, fed = federated_rig(seed=121)
        instance = rig.node("c0h1").container.create_instance("Counter")
        running_ior = instance.ports.facets()[0].ior
        rig.run(until=fed.settle_time())
        ior = rig.run(until=fed.resolvers["c0h6"].resolve(
            COUNTER_IFACE.repo_id))
        assert ior == running_ior

    def test_peer_discovery_is_epidemic(self):
        """Seeded with one peer each, every owner still learns the
        whole owner population through gossiped beacons."""
        rig, fed = federated_rig(seed=122, owners=4, seed_peer_count=1)
        rig.run(until=fed.settle_time() + 6.0)
        all_owners = sorted(fed.agents)
        for agent in fed.agents.values():
            assert agent.membership.live_owners(
                rig.env.now, fed.config.member_timeout) == all_owners

    def test_live_hosts_tracks_member_death(self):
        rig, fed = federated_rig(seed=123)
        rig.run(until=fed.settle_time())
        assert fed.live_hosts() == set(rig.topology.host_ids())
        victim = "c0h5"
        assert victim not in fed.agents
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=rig.env.now + 3.5 * fed.config.update_interval)
        assert victim not in fed.live_hosts()


class TestGossipRound:
    def test_a_round_is_one_frame_per_peer_however_large(self):
        """A full-sync round sends each sampled peer one ``gossip``
        frame: the records of the owned set that this peer owns (it
        would drop the rest) and the whole owner plane."""
        rig, fed = federated_rig(seed=127)
        rig.run(until=fed.settle_time())
        host, agent = sorted(fed.agents.items())[0]
        now = rig.env.now
        for i in range(300):
            agent.store.apply(record(repo_id=f"IDL:demo/X{i}:1.0",
                                     host="c0h1", epoch=now), now)
        sent = []
        orb = agent.node.orb
        send = orb.send_oneway_fanout

        def spy(iors, odef, args, meter=None):
            sent.append(([ior.host_id for ior in iors], odef.name, args))
            return send(iors, odef, args, meter)

        orb.send_oneway_fanout = spy
        agent.rounds = FULL_SYNC_EVERY - 1        # the next is a full sync
        agent._gossip_round()
        frames = {}
        for peers, operation, (records, beacons) in sent:
            assert operation == "gossip"
            assert beacons == [b.to_value()
                               for b in agent.membership.owner_beacons()]
            for peer in peers:
                assert peer not in frames
                frames[peer] = records
        assert frames and set(frames) <= set(fed.agents) - {host}
        outgoing = agent.store.records()
        for peer, records in frames.items():
            assert records == [
                r.to_value() for r in outgoing
                if peer in fed.ring.owners(r.repo_id,
                                           fed.config.replication)]
            assert 0 < len(records) < len(outgoing)


class TestFederationChurn:
    def test_lookup_survives_owner_loss(self):
        rig, fed = federated_rig(seed=124)
        rig.run(until=fed.settle_time())
        victim = fed.ring.owners(COUNTER_IFACE.repo_id, 1)[0]
        rig.topology.set_host_state(victim, alive=False)
        report = fed.remove_owner(victim)
        assert victim in report.removed
        rig.run(until=rig.env.now + 8.0)
        assert fed.records_converged(COUNTER_IFACE.repo_id)
        ior = rig.run(until=fed.resolvers["c0h7"].resolve(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c0h1"

    def test_rejoined_owner_recovers_via_anti_entropy(self):
        rig, fed = federated_rig(seed=125)
        rig.run(until=fed.settle_time())
        victim = fed.ring.owners(COUNTER_IFACE.repo_id, 1)[0]
        rig.topology.set_host_state(victim, alive=False)
        fed.remove_owner(victim)
        rig.run(until=rig.env.now + 6.0)
        rig.topology.set_host_state(victim, alive=True)
        add_owner(fed, victim)
        # Bounded convergence: a few full-sync periods repopulate the
        # wiped store and re-merge the membership views.
        rig.run(until=rig.env.now
                + 3 * FULL_SYNC_EVERY * fed.config.gossip_interval)
        agent = fed.agents[victim]
        assert agent.store.lookup(COUNTER_IFACE.repo_id)
        assert fed.owner_views_agree()
        assert fed.records_converged(COUNTER_IFACE.repo_id)

    def test_a_record_rebalanced_mid_frame_reaches_its_new_owner(self):
        """A full-sync frame to a non-owner of R leaves R out; if the
        ring then moves R onto that receiver while the frame is in
        flight, R still reaches it within one ``update_interval``: the
        provider's reporter shares the ring and publishes to the new
        owner on its next tick."""
        rig, fed = federated_rig(seed=121, owners=4)
        rig.run(until=fed.settle_time())
        repo_id, n = COUNTER_IFACE.repo_id, fed.config.replication
        old = fed.ring.owners(repo_id, n)
        victim, keeper = old[0], fed.agents[old[1]]
        after = ShardRing(vnodes=fed.config.vnodes)
        for host in fed.ring.hosts():
            if host != victim:
                after.stage_add(host)
        after.rebalance()
        [newcomer] = set(after.owners(repo_id, n)) - set(old)
        assert not fed.agents[newcomer].store.lookup(repo_id)
        sent_at = []
        send = keeper.node.orb.send_oneway_fanout

        def remove_victim():
            rig.topology.set_host_state(victim, alive=False)
            fed.remove_owner(victim)
            yield rig.env.timeout(0)

        def spy(iors, odef, args, meter=None):
            if (not sent_at and keeper.rounds % FULL_SYNC_EVERY == 0
                    and newcomer in [ior.host_id for ior in iors]):
                records, _beacons = args
                assert keeper.store.lookup(repo_id)
                assert all(r["repo_id"] != repo_id for r in records)
                sent_at.append(rig.env.now)
                rig.env.process(remove_victim())   # in this instant
            return send(iors, odef, args, meter)

        keeper.node.orb.send_oneway_fanout = spy
        while not sent_at:
            rig.run(until=rig.env.now + fed.config.gossip_interval)
        transit = 0.05
        rig.run(until=sent_at[0] + fed.config.update_interval + transit)
        assert newcomer in fed.ring.owners(repo_id, n)
        assert fed.agents[newcomer].store.lookup(repo_id)

    def test_dead_owner_suspected_by_peers(self):
        rig, fed = federated_rig(seed=126)
        rig.run(until=fed.settle_time())
        victim = sorted(fed.agents)[0]
        rig.topology.set_host_state(victim, alive=False)
        rig.run(until=rig.env.now + 3.5 * fed.config.update_interval)
        for host, agent in fed.agents.items():
            if host == victim:
                continue
            assert victim not in agent.membership.live_owners(
                rig.env.now, fed.config.member_timeout)


def _mrm_hierarchy(rig):
    dr = DistributedRegistry(rig.nodes, RegistryConfig(
        update_interval=2.0, replicas=2))
    dr.deploy(groups_by_cluster(rig.topology.host_ids()))
    return dr


def _federation(rig):
    fed = FederatedRegistry(rig.nodes, FederationConfig(
        update_interval=2.0, owners=2, replication=2))
    fed.deploy()
    return fed


@pytest.mark.parametrize("build", [_mrm_hierarchy, _federation])
def test_back_end_contract(build):
    """Either back end, built directly, gives the deployment supervisor
    and the chaos panel what they read: ``reporters``, ``resolvers``,
    ``live_hosts()`` and ``settle_time()``."""
    rig = SimRig(clustered(2, 3), seed=127)
    population = set(rig.topology.host_ids())
    rig.node("c1h1").install_package(counter_package())
    registry = build(rig)
    assert set(registry.reporters) == set(registry.resolvers) == population
    rig.run(until=registry.settle_time())
    assert registry.live_hosts() == population
    ior = rig.run(until=registry.resolvers["c1h0"].resolve(
        COUNTER_IFACE.repo_id))
    assert ior.host_id == "c1h1"
    # c1h2 serves no MRM and owns no shard: only its reports vouch for it
    rig.topology.set_host_state("c1h2", alive=False)
    config = registry.config.mrm_config()
    rig.run(until=rig.env.now + config.member_timeout
            + config.update_interval)
    assert registry.live_hosts() == population - {"c1h2"}


class TestFederationFrontDoor:
    def test_federation_config_validation(self):
        with pytest.raises(ConfigurationError):
            FederationConfig(owners=0)
        with pytest.raises(ConfigurationError):
            FederationConfig(replication=0)
        with pytest.raises(ConfigurationError):
            FederationConfig(fanout=0)

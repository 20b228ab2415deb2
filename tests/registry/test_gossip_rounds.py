"""What a gossip round sends, to whom, and what it repairs.

- A delta round carries no records: a member publishes each record to
  every ring owner of its key, so the peer heard it first-hand.  The
  ``federation.gossip.stale_*`` counters count what a frame carried for
  nothing; on a fault-free run they and the merges that won add up to
  the frames' contents.
- A co-owner that missed a publish holds the record within one
  full-sync period (``FULL_SYNC_EVERY`` rounds plus transit): the
  anti-entropy full sync is the repair, and a full sync without records
  fails it.
- Seed peers are candidates only while they are on the ring: a seed
  that ``remove_owner`` retired is never picked, and an owner isolated
  past ``member_timeout`` still finds its live seeds after the heal.
"""

import pytest

from repro.obs import names
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.shard import FULL_SYNC_EVERY, ShardAgent
from repro.sim.faults import FaultInjector
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package

PROVIDER = "c0h1"
#: one LAN hop and back, with room to spare
TRANSIT = 0.05


def federation(seed=120, **cfg_kw):
    cfg_kw.setdefault("owners", 3)
    cfg_kw.setdefault("gossip_interval", 1.0)
    rig = SimRig(clustered(1, 8), seed=seed)
    rig.node(PROVIDER).install_package(counter_package())
    fed = FederatedRegistry(rig.nodes, FederationConfig(**cfg_kw))
    fed.deploy()
    return rig, fed


class TestGossipCarries:
    def test_delta_frames_carry_no_records_and_the_counters_add_up(self):
        rig, fed = federation(update_interval=2.0)
        sent = {"delta": 0, "full": 0}
        received = {"records": 0, "beacons": 0}
        won = {"records": 0, "beacons": 0}

        def watch(agent):
            send, accept = agent._send_shares, agent.accept_gossip
            store_apply, table_apply = (agent.store.apply,
                                        agent.membership.apply)
            inside = []

            def send_shares(outgoing, beacons, peers):
                if agent.rounds % FULL_SYNC_EVERY:
                    assert outgoing == [], "a delta round sends records"
                    sent["delta"] += 1
                else:
                    sent["full"] += len(outgoing)
                send(outgoing, beacons, peers)

            def accept_gossip(records, beacons):
                received["records"] += len(records)
                received["beacons"] += len(beacons)
                inside.append(True)
                accept(records, beacons)
                inside.pop()

            def counted(apply, kind):
                def wrapper(*args):
                    merged = apply(*args)
                    if inside and merged:
                        won[kind] += 1
                    return merged
                return wrapper

            agent._send_shares = send_shares
            agent.accept_gossip = accept_gossip
            agent.store.apply = counted(store_apply, "records")
            agent.membership.apply = counted(table_apply, "beacons")

        for agent in fed.agents.values():
            watch(agent)
        rig.run(until=60.0)

        assert sent["delta"] > 0 and sent["full"] > 0
        assert received["records"] > 0
        metrics = rig.metrics
        for name in (names.FEDERATION_REJECTED_NOT_OWNER,
                     names.FEDERATION_REJECTED_UNKNOWN_HOST,
                     names.FEDERATION_EPOCH_CLAMPED):
            assert metrics.get(name) == 0, name
        stale_records = metrics.get(names.FEDERATION_STALE_RECORDS)
        stale_beacons = metrics.get(names.FEDERATION_STALE_BEACONS)
        assert stale_records + won["records"] == received["records"]
        assert stale_beacons + won["beacons"] == received["beacons"]
        assert stale_beacons > 0


def missed_publish_repaired() -> bool:
    """One co-owner of the provider's record drops the first publish
    that carries it; publishes are 20 s apart, so only gossip can bring
    it within the full-sync period.  True when it does."""
    rig, fed = federation(update_interval=20.0)
    repo_id = COUNTER_IFACE.repo_id
    keeper, missing = fed.ring.owners(repo_id, fed.config.replication)
    agent = fed.agents[missing]
    accept = agent.accept_publish
    dropped, later = [], []

    def lossy(records):
        if any(value["host"] == PROVIDER for value in records):
            if not dropped:
                dropped.append(rig.env.now)
                return
            later.append(rig.env.now)
        accept(records)

    agent.accept_publish = lossy
    while not dropped:
        rig.run(until=rig.env.now + 0.5)
    assert fed.agents[keeper].store.lookup(repo_id)
    rig.run(until=dropped[0] + FULL_SYNC_EVERY
            * fed.config.gossip_interval + TRANSIT)
    assert not later, "a second publish reached the co-owner"
    return any(r.host == PROVIDER for r in agent.store.lookup(repo_id))


class TestFullSyncRepairs:
    def test_a_missed_publish_is_held_within_one_full_sync_period(self):
        assert missed_publish_repaired()

    def test_full_syncs_without_records_fail_it(self, monkeypatch):
        send = ShardAgent._send_shares
        monkeypatch.setattr(
            ShardAgent, "_send_shares",
            lambda self, outgoing, beacons, peers:
                send(self, [], beacons, peers))
        assert not missed_publish_repaired()


def spy_picks(agent) -> list:
    picks = []
    pick = agent._pick_peers

    def spy():
        peers = pick()
        picks.append(peers)
        return peers

    agent._pick_peers = spy
    return picks


class TestSeedPeers:
    def test_a_removed_seed_is_never_picked(self):
        rig, fed = federation(owners=6, update_interval=2.0)
        rig.run(until=fed.settle_time())
        picker = fed.agents["c0h0"]
        retired = picker.seed_peers[0]
        rig.topology.set_host_state(retired, alive=False)
        fed.remove_owner(retired)
        picks = spy_picks(picker)
        rig.run(until=rig.env.now + 60 * fed.config.gossip_interval)
        assert len(picks) >= 59 and all(picks)
        assert not any(retired in peers for peers in picks)

    @pytest.mark.parametrize("seed", [120, 121])
    def test_an_isolated_owner_finds_its_seeds_after_the_heal(self, seed):
        rig, fed = federation(seed=seed, update_interval=2.0)
        rig.run(until=fed.settle_time())
        lonely = fed.agents["c0h0"]
        others = [h for h in rig.topology.host_ids() if h != "c0h0"]
        injector = FaultInjector(rig.env, rig.topology)
        cuts = injector.partition(["c0h0"], others)
        rig.run(until=rig.env.now + 2 * fed.config.member_timeout)
        assert lonely.membership.live_owners(
            rig.env.now, fed.config.member_timeout) == ["c0h0"]
        injector.heal_partition(cuts)
        picks = spy_picks(lonely)
        rig.run(until=rig.env.now + fed.config.gossip_interval)
        assert picks == [sorted(lonely.seed_peers)]
        rig.run(until=rig.env.now + FULL_SYNC_EVERY
                * fed.config.gossip_interval + TRANSIT)
        assert fed.owner_views_agree()

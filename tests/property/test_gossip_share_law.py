"""A gossip frame carries exactly the records its receiver keeps and
the owner-plane beacons the round's kind calls for.

A member publishes each record to every ring owner of its key, so a
delta round carries no records: what the sender merged since its last
round the peer heard first-hand.  A full-sync round carries the
sender's records, and ``ShardAgent.accept_gossip`` merges a record only
if the receiver owns its repo-id under the shared ring, so
``ShardAgent._send_shares`` sends each peer only that peer's share of
them, and marshals each distinct share once.  A full-sync round carries
the whole owner plane; a delta round carries only the beacons dated
within one ``gossip_interval`` (the sender's own re-dated beacon, what
it heard first-hand since its last round, fresh dead-marks).  The law,
over a random ring (2-8 owners, replication 1-3), a random sender store
and owner plane, a delta or full-sync round, random sampled peers and a
spy on ``send_oneway_fanout``:

- every peer gets exactly one frame;
- a delta frame carries no records;
- a full-sync frame's records are exactly its peer's owned share of
  the sender's store, in store order;
- a full-sync frame's beacons are the sender's whole owner plane, and a
  delta frame's are exactly the plane's beacons dated at or after
  ``now - gossip_interval``, in plane order;
- there is one fan-out call per distinct share, its peers in sampled
  order, the calls in order of each share's first peer;
- applying a peer's frame leaves the receiver's ``RecordStore`` and
  ``MembershipTable`` equal to what applying the unfiltered frame (every
  outgoing record, as sent before shares, with the same beacons) leaves,
  and drops nothing as not owned.

Six named mutants of the round must each fail the law: filtering by
the *sender's* ownership, sending only to the primary owner, sending a
record-less frame without its beacons, one call per peer, a delta
frame without the sender's own beacon, and a delta that carries the
records merged since the previous round (the old delta).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.obs import names
from repro.registry.federation import FederationConfig, ShardRing
from repro.registry.federation.records import (
    HostBeacon,
    MembershipTable,
    ProviderRecord,
    RecordStore,
)
from repro.registry.federation.shard import (
    FULL_SYNC_EVERY,
    GOSSIP_OP,
    METER,
    ShardAgent,
    shard_ior,
)
from repro.sim.stats import MetricRegistry

HOSTS = [f"h{i}" for i in range(10)]
REPOS = [f"IDL:demo/R{i}:1.0" for i in range(10)]
#: report epochs up to the round at NOW; every one stays far inside the
#: record timeout, so the full sync's sweep drops nothing.
TIMES = [0.0, 1.0, 2.0, 3.0]
NOW = 3.0

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    report_multiple_bugs=False)
MUTANT_SETTINGS = settings(SETTINGS, phases=[Phase.generate])

_records = st.builds(
    lambda repo, host, epoch, cpu: ProviderRecord(
        repo_id=repo, host=host, component="C", version="1.0.0",
        running_ior="", mobility="mobile", free_cpu=cpu, free_memory=8.0,
        is_tiny=False, epoch=epoch),
    st.sampled_from(REPOS), st.sampled_from(HOSTS),
    st.sampled_from(TIMES), st.sampled_from([1.0, 2.0]))


@st.composite
def _rounds(draw):
    owners = draw(st.permutations(HOSTS))[:draw(st.integers(2, 8))]
    sender = owners[0]
    peers = sorted(draw(st.lists(st.sampled_from(owners[1:]), min_size=1,
                                 unique=True)))
    beacons = st.builds(HostBeacon, st.sampled_from(owners),
                        st.sampled_from(TIMES), st.booleans())
    return SimpleNamespace(
        owners=owners, sender=sender, peers=peers,
        replication=draw(st.integers(1, 3)),
        store=draw(st.lists(_records, max_size=12)),
        plane=draw(st.lists(beacons, max_size=6)),
        full_sync=draw(st.booleans()),
        prior=draw(st.lists(_records, max_size=4)),
        prior_plane=draw(st.lists(beacons, max_size=4)))


def _agent(host, ring, config, calls=None) -> ShardAgent:
    """A shard agent with no ORB or host loop under it: what a round
    sends is appended to *calls*."""
    def spy(iors, odef, args, meter=None):
        calls.append(([ior.host_id for ior in iors], odef, args, meter))
        return 0

    agent = ShardAgent.__new__(ShardAgent)
    agent.node = SimpleNamespace(
        host_id=host, env=SimpleNamespace(now=NOW),
        metrics=MetricRegistry(),
        network=SimpleNamespace(topology=frozenset(HOSTS)),
        orb=SimpleNamespace(send_oneway_fanout=spy))
    agent.ring = ring
    agent.config = config
    agent.store = RecordStore()
    agent.membership = MembershipTable()
    agent.rounds = 0
    return agent


def _receiver(host, ring, config, world) -> ShardAgent:
    agent = _agent(host, ring, config)
    for record in world.prior:
        agent.store.apply(record)
    for beacon in world.prior_plane:
        agent.membership.apply(beacon)
    return agent


def _state(agent: ShardAgent):
    return (agent.store.records(),
            {repo: agent.store.lookup(repo) for repo in REPOS},
            agent.membership.owner_beacons())


def check_share_law(world) -> None:
    ring = ShardRing(vnodes=8)
    for host in world.owners:
        ring.stage_add(host)
    ring.rebalance()
    config = FederationConfig(owners=len(world.owners),
                              replication=world.replication,
                              update_interval=5.0, gossip_interval=2.0)
    calls = []
    sender = _agent(world.sender, ring, config, calls)
    for record in world.store:
        sender.store.apply(record)
    for beacon in world.plane:
        sender.membership.apply(beacon)
    sender.rounds = FULL_SYNC_EVERY - 1 if world.full_sync else 0
    sender._pick_peers = lambda: list(world.peers)
    outgoing = sender.store.records() if world.full_sync else []
    sender._gossip_round()

    plane = [b.to_value() for b in sender.membership.owner_beacons()]
    if not world.full_sync:
        plane = [b for b in plane
                 if b["epoch"] >= NOW - config.gossip_interval]
    share = {peer: [r.to_value() for r in outgoing
                    if peer in ring.owners(r.repo_id, world.replication)]
             for peer in world.peers}
    frames = {}
    for hosts, odef, (records, beacons), meter in calls:
        assert odef is GOSSIP_OP and meter == METER
        assert beacons == plane, "a frame's beacons are not the round's"
        for peer in hosts:
            assert peer not in frames, f"{peer} got two frames"
            frames[peer] = records
    assert sorted(frames) == world.peers, "a peer got no frame"
    if not world.full_sync:
        assert not any(frames.values()), "a delta frame carries records"
    for peer in world.peers:
        assert frames[peer] == share[peer], f"{peer}'s frame is not its share"

    distinct = []
    for peer in world.peers:
        if share[peer] not in distinct:
            distinct.append(share[peer])
    assert [records for _h, _o, (records, _b), _m in calls] == distinct, \
        "not one call per distinct share, in first-peer order"
    for hosts, _odef, _args, _meter in calls:
        assert hosts == [p for p in world.peers if p in hosts]

    unfiltered = ([r.to_value() for r in outgoing], plane)
    for peer in world.peers:
        kept = _receiver(peer, ring, config, world)
        kept.accept_gossip(frames[peer], plane)
        assert kept.node.metrics.get(
            names.FEDERATION_REJECTED_NOT_OWNER) == 0
        whole = _receiver(peer, ring, config, world)
        whole.accept_gossip(*unfiltered)
        assert _state(kept) == _state(whole), \
            f"{peer} ends differently than under the unfiltered frame"


@given(_rounds())
@SETTINGS
def test_a_frame_is_its_receivers_share(world):
    check_share_law(world)


# -- mutants -----------------------------------------------------------------

def _send(owned, *, bare_when_empty=False, per_peer=False):
    """``ShardAgent._send_shares`` with the share rule *owned(agent,
    peer, repo_id)* and the two grouping faults switchable."""
    def send_shares(self, outgoing, beacons, peers):
        groups = {}
        for peer in peers:
            share = tuple(i for i, r in enumerate(outgoing)
                          if owned(self, peer, r.repo_id))
            groups.setdefault(peer if per_peer else share,
                              (share, []))[1].append(peer)
        plane = [b.to_value() for b in beacons]
        for share, group in groups.values():
            beacons = [] if bare_when_empty and not share else plane
            self.node.orb.send_oneway_fanout(
                [shard_ior(h) for h in group], GOSSIP_OP,
                ([outgoing[i].to_value() for i in share], beacons),
                meter=METER)
    return send_shares


def _peer_owns(agent, peer, repo_id):
    return peer in agent.ring.owners(repo_id, agent.config.replication)


_SEND_SHARES = ShardAgent._send_shares


def _delta_without_own_beacon(self, outgoing, beacons, peers):
    if self.rounds % FULL_SYNC_EVERY:
        beacons = [b for b in beacons if b.host != self.host_id]
    _SEND_SHARES(self, outgoing, beacons, peers)


def _delta_carries_changed_records(self, outgoing, beacons, peers):
    """The old delta: a round that is not a full sync sends the records
    merged since the previous round, one ``gossip_interval`` ago (a
    record is taken as merged at its report epoch, as a publish is)."""
    if self.rounds % FULL_SYNC_EVERY:
        since = self.env.now - self.config.gossip_interval
        outgoing = [r for r in self.store.records() if r.epoch >= since]
    _SEND_SHARES(self, outgoing, beacons, peers)


MUTANTS = {
    "sender_ownership": _send(lambda agent, peer, repo_id:
                              agent._owns(repo_id)),
    "primary_owner_only": _send(lambda agent, peer, repo_id:
                                peer == agent.ring.primary(repo_id)),
    "no_beacons_on_record_less_frames": _send(_peer_owns,
                                              bare_when_empty=True),
    "one_call_per_peer": _send(_peer_owns, per_peer=True),
    "delta_without_own_beacon": _delta_without_own_beacon,
    "delta_carries_changed_records": _delta_carries_changed_records,
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    monkeypatch.setattr(ShardAgent, "_send_shares", MUTANTS[mutant])

    @given(_rounds())
    @MUTANT_SETTINGS
    def law(world):
        check_share_law(world)

    with pytest.raises(AssertionError):
        law()

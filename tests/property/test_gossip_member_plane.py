"""The gossip frame's columnar member plane against a one-fact-at-a-time
reference.

A sender's member table is filled with random facts — known and unknown
host ids, epochs up to far beyond the receiver's ``now +
epoch_tolerance``, learn times on either side of the delta cut.  The
frame then takes the production path end to end:
``MembershipTable.members_since`` -> ``ShardAgent._gossip_args`` -> real
CDR encode and decode of the ``gossip`` operation's in-parameters ->
``ShardAgent.accept_gossip`` on a fresh agent.  Afterwards

- the receiver's ``_members`` / ``_member_touched`` (contents *and*
  insertion order) equal a reference ``MembershipTable`` that was shown
  the same facts one ``observe_member`` at a time, under the same
  unknown-host and epoch-clamp rules, and the two counters agree;
- delivering the frame twice changes nothing (idempotent);
- two frames delivered in either order converge to the same table
  (commutative) — ROADMAP 4(a) at small scope.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.registry.federation import FederationConfig
from repro.registry.federation.records import MembershipTable
from repro.registry.federation.ring import ShardRing
from repro.registry.federation.shard import SHARD_IFACE, ShardAgent
from repro.sim.topology import clustered
from repro.testing import SimRig

KNOWN = [f"c0h{i}" for i in range(8)]
#: single-character corruptions of real ids, as a wire bit flip leaves
UNKNOWN = ["c0j1", "c0h8", "c9h9", "b0h2"]
TOLERANCE = FederationConfig().epoch_tolerance
GOSSIP = SHARD_IFACE.operations["gossip"]

#: (host, reported epoch, sender's learn time)
facts = st.lists(
    st.tuples(st.sampled_from(KNOWN + UNKNOWN),
              st.floats(0.0, 40.0, allow_nan=False),
              st.floats(0.0, 10.0, allow_nan=False)),
    max_size=24)
since = st.sampled_from([0.0, 2.5, 5.0])
now = st.sampled_from([0.0, 3.0, 12.5])


class _World:
    """One rig; every agent sits on its own host."""

    def __init__(self) -> None:
        self.rig = SimRig(clustered(1, len(KNOWN)), seed=14)
        self._free = list(KNOWN)
        self._config = FederationConfig()

    def agent(self) -> ShardAgent:
        return ShardAgent(self.rig.node(self._free.pop()), ShardRing(),
                          self._config)

    def settle(self, now: float) -> None:
        if now:
            self.rig.run(until=now)

    def frame(self, sender: ShardAgent, facts, since: float) -> bytes:
        """The wire bytes *sender* would gossip for these member facts."""
        sender.membership = MembershipTable()
        for host, epoch, learned in facts:
            sender.membership.observe_member(host, epoch, learned)
        sender._round_planes = (
            [], *sender.membership.members_since(since))
        enc = CDREncoder()
        GOSSIP.codec().encode_in(enc, sender._gossip_args([]))
        return enc.getvalue()

    def counters(self) -> tuple[float, float]:
        metrics = self.rig.metrics
        return (metrics.get("federation.rejected.unknown_host", 0.0),
                metrics.get("federation.epoch_clamped", 0.0))


def _deliver(agent: ShardAgent, wire: bytes) -> list:
    args = GOSSIP.codec().decode_in(CDRDecoder(wire))
    agent.accept_gossip(*args)
    return args


def _reference(table: MembershipTable, columns, now: float):
    """Apply decoded columns one fact at a time; returns the number of
    (unknown hosts, clamped epochs) it saw."""
    unknown = clamped = 0
    for host, epoch in zip(*columns):
        if host not in KNOWN:
            unknown += 1
            continue
        if epoch > now + TOLERANCE:
            clamped += 1
            epoch = now + TOLERANCE
        table.observe_member(host, epoch, now)
    return unknown, clamped


def _plane(table: MembershipTable) -> tuple[list, list]:
    """The member plane of *table*, in insertion order."""
    return list(table._members.items()), list(table._member_touched.items())


def _unordered(table: MembershipTable) -> tuple[dict, dict]:
    return dict(table._members), dict(table._member_touched)


@settings(max_examples=60, deadline=None)
@given(facts=facts, since=since, now=now)
def test_one_frame_matches_the_reference_and_is_idempotent(facts, since,
                                                           now):
    world = _World()
    sender, receiver = world.agent(), world.agent()
    world.settle(now)
    wire = world.frame(sender, facts, since)
    before = world.counters()
    records, beacons, hosts, epochs = _deliver(receiver, wire)
    assert records == [] and beacons == []
    # The columns survive the wire exactly, in learn order.
    assert (hosts, epochs) == sender.membership.members_since(since)

    reference = MembershipTable()
    unknown, clamped = _reference(reference, (hosts, epochs), now)
    assert _plane(receiver.membership) == _plane(reference)
    after = world.counters()
    assert (after[0] - before[0], after[1] - before[1]) == (unknown,
                                                           clamped)
    assert all(epoch <= now + TOLERANCE
               for epoch in receiver.membership._members.values())

    _deliver(receiver, wire)
    assert _plane(receiver.membership) == _plane(reference)


@settings(max_examples=60, deadline=None)
@given(facts_a=facts, facts_b=facts, since=since, now=now)
def test_two_frames_commute(facts_a, facts_b, since, now):
    world = _World()
    sender, first, second = world.agent(), world.agent(), world.agent()
    world.settle(now)
    wire_a = world.frame(sender, facts_a, since)
    wire_b = world.frame(sender, facts_b, since)
    columns_a = _deliver(first, wire_a)[2:]
    columns_b = _deliver(first, wire_b)[2:]
    _deliver(second, wire_b)
    _deliver(second, wire_a)

    reference = MembershipTable()
    _reference(reference, columns_a, now)
    _reference(reference, columns_b, now)
    assert (_unordered(first.membership) == _unordered(second.membership)
            == _unordered(reference))

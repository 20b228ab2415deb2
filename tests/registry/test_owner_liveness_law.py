"""Fault-free owner liveness: gossip keeps every live owner believed alive.

A delta gossip round carries only the owner-plane beacons dated within
one ``gossip_interval`` (the sender's own re-dated beacon, what it heard
first-hand since its previous round, fresh dead-marks); the whole plane
travels every ``FULL_SYNC_EVERY``-th round.  The law, on a fault-free
``clustered(8, 4, backbone="chords")`` world with 16 owners and the
default ``FederationConfig``, run for 600 sim-s at seeds 1-3:

- no owner is ever marked dead while its host is up;
- at the end every live owner sees the same live-owner set
  (``owner_views_agree``).

Two named mutants, cadences measured and rejected, must fail it: the
whole plane every 4th round and every 3rd round, with only the sender's
own beacon plus the beacons whose alive flag flipped since its previous
round in between.  Their beacons reach a distant owner too rarely to
beat ``member_timeout``.
"""

from __future__ import annotations

import pytest

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.records import MembershipTable
from repro.registry.federation.shard import ShardAgent
from repro.sim.topology import clustered
from repro.testing import SimRig

SEEDS = (1, 2, 3)
RUN_S = 600.0
OWNERS = 16


def false_suspicions(seed: int) -> tuple[list, bool]:
    """Run the world; return every dead-mark of an owner whose host was
    up, as (marking table's owner, suspect, time), and whether the
    owner views agree at the end."""
    rig = SimRig(clustered(8, 4, backbone="chords"), seed=seed)
    fed = FederatedRegistry(rig.nodes, FederationConfig(owners=OWNERS))
    fed.deploy()
    tables = {id(agent.membership): host
              for host, agent in fed.agents.items()}
    marks = []
    mark_dead = MembershipTable.mark_dead

    def spy(table, host, now):
        if table.get(host) is not None and rig.node(host).host.alive:
            marks.append((tables.get(id(table)), host, now))
        mark_dead(table, host, now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MembershipTable, "mark_dead", spy)
        rig.run(until=RUN_S)
    return marks, fed.owner_views_agree()


def check_owner_liveness() -> None:
    for seed in SEEDS:
        marks, agree = false_suspicions(seed)
        assert marks == [], (
            f"seed {seed}: {len(marks)} live owners marked dead, "
            f"first {marks[:3]}")
        assert agree, f"seed {seed}: owner views disagree at the end"


def test_no_live_owner_is_marked_dead():
    check_owner_liveness()


# -- mutants -----------------------------------------------------------------

_SEND_SHARES = ShardAgent._send_shares


def _plane_every(k: int):
    """``_send_shares`` sending the whole owner plane every *k*-th round
    and, in between, the sender's own beacon plus the flips."""
    def send_shares(self, outgoing, beacons, peers):
        plane = self.membership.owner_beacons()
        seen = self.__dict__.setdefault("_alive_seen", {})
        if self.rounds % k:
            beacons = [b for b in plane if b.host == self.host_id
                       or seen.get(b.host) != b.alive]
        else:
            beacons = plane
        seen.update((b.host, b.alive) for b in plane)
        _SEND_SHARES(self, outgoing, beacons, peers)
    return send_shares


MUTANTS = {
    "whole_plane_every_4th_round": _plane_every(4),
    "whole_plane_every_3rd_round": _plane_every(3),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    monkeypatch.setattr(ShardAgent, "_send_shares", MUTANTS[mutant])
    with pytest.raises(AssertionError, match="live owners marked dead"):
        check_owner_liveness()

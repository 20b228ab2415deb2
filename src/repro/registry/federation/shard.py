"""Shard owners: the active agents of the federated registry.

A :class:`ShardAgent` runs on each owner host.  It keeps a
:class:`~repro.registry.federation.records.RecordStore` with its slice
of the provider-record space and a
:class:`~repro.registry.federation.records.MembershipTable` (the
gossiped owner plane), and runs
**seeded epidemic rounds**: every ``gossip_interval`` it picks
``fanout`` live peers from its own membership view (a named RNG
stream, so runs are reproducible) and sends each of them **one**
``gossip`` frame: the round's owner-plane beacons, the same for every
peer, and on a full sync the peer's share of the records, those it
owns under the shared ring.  Peers with equal shares (on a delta round,
all of them) share one :meth:`~repro.orb.core.ORB.send_oneway_fanout`
call, so each distinct share is marshalled once.

Anti-entropy: most rounds are deltas.  They carry no records, only
the beacons dated within the last ``gossip_interval``: the sender's
own, re-dated each round, what it heard first-hand since its previous
round, and fresh dead-marks.  A member publishes each record to every
ring owner of its key, so a record merged here since the last round is
one the peer heard first-hand too.  Every ``FULL_SYNC_EVERY``-th round
pushes the full owned set and the whole owner plane, so an owner that
lost its RAM (crash/restart), missed a publish or missed deltas
(partition) converges back within a bounded number of rounds.

A member sends each owner of its keys one frame per
``update_interval``: ``publish_batch``, its share of records for that
owner, when the share changed or on its ``FULL_SYNC_EVERY``-th tick,
else the bodiless ``alive``.  Either frame's arrival is the member's
keep-alive, noted by the owner's node in ``ORB.heard`` before the agent
sees it, so the agent keeps no member table.  A live record is offered
while its host was heard within ``record_timeout`` and swept one
``update_interval`` of silence later.  A publish is its sender's whole
share for the owner, so a live record of the sender that it leaves out
goes (``RecordStore.retain``).  The epoch, clamped on arrival, only
orders merges.  A withdrawn repo-id arrives as a tombstone, swept
``record_timeout`` after its epoch.

The receiver's ownership check stays the authority: a record whose
owner changes while a frame is in flight (``remove_owner`` /
``add_owner``) is dropped there and counted, and reaches its new owner
within one ``update_interval``, since reporters share the ring and
publish to the new owner on their next tick.

Peer discovery is itself epidemic: an agent starts knowing only its
``seed_peers`` and learns the rest of the owner population from the
beacons piggybacked on the gossip frames.  A seed stays a candidate
peer while it is on the ring, so an owner isolated past
``member_timeout`` finds its peers again; a seed that ``remove_owner``
took off the ring is never picked.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.obs import names
from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    sequence_tc,
    tc_boolean,
    tc_double,
    tc_long,
    tc_string,
)
from repro.registry.view import CANDIDATE_TC, qos_admits
from repro.registry.federation.records import (
    HOST_BEACON_TC,
    HostBeacon,
    MembershipTable,
    PROVIDER_RECORD_TC,
    ProviderRecord,
    RecordStore,
)
from repro.sim.hostloop import HostLoop
from repro.xmlmeta.descriptors import QoSSpec

SHARD_ADAPTER = "node"
SHARD_KEY = "shard"

METER = "federation.gossip"

#: rounds between anti-entropy full syncs, and a member's ticks
#: between full publishes
FULL_SYNC_EVERY = 4

_NEVER = float("-inf")

SHARD_IFACE = InterfaceDef(
    "IDL:corbalc/Federation/Shard:1.0",
    "Shard",
    operations=[
        # Member -> owner, one frame per owner per ``update_interval``:
        # the member's whole share for this owner (the records of the
        # keys it owns, tombstones included) when that share changed
        # since the last tick or on a full tick, else the bodiless
        # ``alive``.  Either frame's arrival is the member's keep-alive
        # (the owner node's ``ORB.heard``), and keeps its records live;
        # the owner drops those of its live records a share leaves out.
        op("publish_batch", [("records", sequence_tc(PROVIDER_RECORD_TC))],
           oneway=True),
        op("alive", [], oneway=True),
        # Owner <-> owner: one epidemic round: the owner-plane beacons,
        # and on a full sync the receiver's share of the records.
        # Member liveness is never relayed.
        op("gossip", [("records", sequence_tc(PROVIDER_RECORD_TC)),
                      ("beacons", sequence_tc(HOST_BEACON_TC))],
           oneway=True),
        # Resolver -> owner: candidates for one repo-id under a QoS bar.
        op("lookup", [("repo_id", tc_string), ("cpu", tc_double),
                      ("memory", tc_double), ("bandwidth", tc_double)],
           sequence_tc(CANDIDATE_TC), cpu_cost=0.2),
        op("shard_hosts", [], sequence_tc(tc_string)),
        op("record_count", [], tc_long),
        op("is_shard_alive", [], tc_boolean),
    ],
)
GOSSIP_OP = SHARD_IFACE.operations["gossip"]


def shard_ior(host: str) -> IOR:
    return IOR(SHARD_IFACE.repo_id, host, SHARD_ADAPTER, SHARD_KEY)


class ShardAgent:
    """One shard owner: record store + membership + gossip rounds."""

    def __init__(self, node, ring, config,
                 seed_peers: Sequence[str] = ()) -> None:
        self.node = node
        self.ring = ring
        self.config = config
        self.seed_peers = tuple(h for h in seed_peers
                                if h != node.host_id)
        self.store = RecordStore()
        self.membership = MembershipTable()
        self.rounds = 0
        self._rng = node.network.rngs.stream(
            f"federation.gossip.{node.host_id}")
        self._servant = ShardServant(self)
        node.orb.adapter(SHARD_ADAPTER).activate(self._servant,
                                                 key=SHARD_KEY)
        self._bootstrap()
        # A restart resumes from the static seed list; anti-entropy
        # full syncs from peers repopulate the record store.
        self.loop = HostLoop(self.env, node.host, self._gossip_loop,
                             on_crash=self._lose_state,
                             on_restart=self._bootstrap)

    # -- identity -----------------------------------------------------------
    @property
    def env(self):
        return self.node.env

    @property
    def host_id(self) -> str:
        return self.node.host_id

    @property
    def ior(self) -> IOR:
        return shard_ior(self.host_id)

    # -- lifecycle ----------------------------------------------------------
    def _bootstrap(self) -> None:
        """Initial membership: self plus the configured seed peers."""
        now = self.env.now
        self.membership.apply(
            HostBeacon(self.host_id, now, alive=True))
        for peer in self.seed_peers:
            self.membership.apply(
                HostBeacon(peer, now, alive=True))

    def _lose_state(self) -> None:
        # RAM is gone: records and learned membership alike.
        self.store.clear()
        self.membership.clear()

    def retire(self) -> None:
        """Permanently stand this owner down (drained or replaced).

        Unlike a crash, retirement unhooks the agent from its host: a
        later restart of the host must not resurrect the gossip loop,
        and the shard key must be free for a future re-promotion.
        """
        self.loop.stop()
        self._lose_state()
        self.node.orb.adapter(SHARD_ADAPTER).deactivate(SHARD_KEY)

    # -- gossip rounds ------------------------------------------------------
    def _gossip_loop(self):
        # Desynchronize the fleet's rounds.
        phase = float(self._rng.uniform(0.0, self.config.gossip_interval))
        if phase:
            yield self.env.timeout(phase)
        while True:
            self._gossip_round()
            yield self.env.timeout(self.config.gossip_interval)

    def _pick_peers(self) -> list[str]:
        now = self.env.now
        peers = set(self.membership.live_owners(
            now, self.config.member_timeout))
        peers.update(h for h in self.seed_peers if h in self.ring)
        peers.discard(self.host_id)
        ordered = sorted(peers)
        if len(ordered) <= self.config.fanout:
            return ordered
        picks = self._rng.choice(len(ordered), size=self.config.fanout,
                                 replace=False)
        return [ordered[int(i)] for i in sorted(picks)]

    def _gossip_round(self) -> None:
        now = self.env.now
        self.membership.apply(
            HostBeacon(self.host_id, now, alive=True))
        # Suspect silence: owners whose beacons went stale are marked
        # dead locally (the marking gossips onward).
        for host in self.membership.silent(
                now - self.config.member_timeout):
            if host != self.host_id:
                self.membership.mark_dead(host, now)
        self.rounds += 1
        if self.rounds % FULL_SYNC_EVERY == 0:
            # ``candidates`` hides a live record after ``record_timeout``
            # of silence, and the sweep keeps it one tick longer: a
            # member heard again sends an unchanged share only on its
            # full tick, so a record swept when the next frame could
            # still come would be missing for up to FULL_SYNC_EVERY
            # ticks after the heal.  A longer window keeps dead hosts'
            # records in the full syncs (C18's post-churn convergence:
            # 3 -> 6 rounds at twice ``record_timeout``).
            timeout = self.config.record_timeout
            kept = now - timeout - self.config.update_interval
            self.store.sweep(now - timeout,
                             lambda rec: self._live(rec, kept))
            outgoing = self.store.records()
            beacons = self.membership.owner_beacons()
        else:
            outgoing = []
            beacons = self.membership.owner_beacons(
                since=now - self.config.gossip_interval)
        peers = self._pick_peers()
        if not peers:
            return
        self._send_shares(outgoing, beacons, peers)
        self.node.metrics.counter(names.FEDERATION_ROUNDS).inc()

    def _send_shares(self, outgoing: list[ProviderRecord],
                     beacons: list[HostBeacon], peers: list[str]) -> None:
        """One ``gossip`` frame per peer, carrying the records of
        *outgoing* that the peer owns under the shared ring (it would
        drop the rest) and *beacons*, the same for every peer.  Peers
        with equal shares share one ``send_oneway_fanout`` call, so
        each distinct body is marshalled once; calls go out in order of
        each share's first peer.  An empty share still goes out: the
        sender's own beacon makes the frame a heartbeat too."""
        shares: dict[str, list[int]] = {peer: [] for peer in peers}
        for index, record in enumerate(outgoing):
            for owner in self.ring.owners(record.repo_id,
                                          self.config.replication):
                if owner in shares:
                    shares[owner].append(index)
        groups: dict[tuple[int, ...], list[str]] = {}
        for peer in peers:
            groups.setdefault(tuple(shares[peer]), []).append(peer)
        plane = [b.to_value() for b in beacons]
        for share, group in groups.items():
            self.node.orb.send_oneway_fanout(
                [shard_ior(h) for h in group], GOSSIP_OP,
                ([outgoing[i].to_value() for i in share], plane),
                meter=METER)

    # -- state merging ------------------------------------------------------
    def _owns(self, repo_id: str) -> bool:
        return self.host_id in self.ring.owners(
            repo_id, self.config.replication)

    def _clamp_epoch(self, epoch: float, now: float) -> float:
        """Cap a reported epoch at ``now + epoch_tolerance``.

        Epochs order merges, and a beacon's is also the owner plane's
        soft-state clock: a record whose epoch sits far in the future
        beats every honest report that follows it, and a beacon's keeps
        a dead owner "fresh" in the owner plane.  One clock-skewed
        reporter could therefore poison every owner it reaches.  Owners
        only ever trust their own clock: whatever a publish or gossip
        frame claims, the accepted epoch is at most (almost) the local
        receive time.
        """
        limit = now + self.config.epoch_tolerance
        if epoch <= limit:
            return epoch
        self.node.metrics.counter(names.FEDERATION_EPOCH_CLAMPED).inc()
        return limit

    def _known_host(self, host: str) -> bool:
        """Beacon/record host ids must name real population hosts.

        State arrives over an unreliable wire: a bit flip inside a
        host-id string survives CDR decoding (same length, different
        bytes) and, unchecked, a phantom owner enters the owner plane
        — after which gossip fan-out tries to *route* to it and the
        owner's loop dies on an unknown-destination error.  The
        topology is the ground truth of who can exist; anything else
        is dropped and counted.
        """
        if host in self.node.network.topology:
            return True
        self.node.metrics.counter(names.FEDERATION_REJECTED_UNKNOWN_HOST).inc()
        return False

    def _clamped(self, item, now: float):
        """*item*, a record or beacon, with its epoch clamped."""
        epoch = self._clamp_epoch(item.epoch, now)
        return item if epoch == item.epoch else replace(item, epoch=epoch)

    def accept_publish(self, sender: str, records: Sequence[dict]) -> None:
        """Merge a publish from member *sender*: its whole share for
        this owner, so a live record of *sender* that it leaves out goes
        (``RecordStore.retain``)."""
        now = self.env.now
        for value in records:
            record = ProviderRecord.from_value(value)
            if self._known_host(record.host):
                self.store.apply(self._clamped(record, now))
        self.store.retain(sender, {value["repo_id"] for value in records
                                   if value["host"] == sender})

    def accept_gossip(self, records: Sequence[dict],
                      beacons: Sequence[dict]) -> None:
        now = self.env.now
        stale_beacons = stale_records = 0
        for value in beacons:
            beacon = HostBeacon.from_value(value)
            if self._known_host(beacon.host):
                stale_beacons += not self.membership.apply(
                    self._clamped(beacon, now))
        for value in records:
            record = ProviderRecord.from_value(value)
            if not self._known_host(record.host):
                continue
            # Keep shards bounded: only merge records this owner is
            # responsible for under the current ring.  A sender filters
            # by the same ring, so a drop here means ownership moved
            # while the frame was in flight (or the wire flipped a bit
            # of the repo-id).
            if not self._owns(record.repo_id):
                self.node.metrics.counter(
                    names.FEDERATION_REJECTED_NOT_OWNER).inc()
                continue
            stale_records += not self.store.apply(self._clamped(record, now))
        # What the frame carried for nothing: the merges that lost.
        metrics = self.node.metrics
        metrics.counter(names.FEDERATION_STALE_BEACONS).inc(stale_beacons)
        metrics.counter(names.FEDERATION_STALE_RECORDS).inc(stale_records)

    # -- queries ------------------------------------------------------------
    def _live(self, record: ProviderRecord, cutoff: float) -> bool:
        """A live record stands while this owner's node heard its host
        at or after *cutoff* (``ORB.heard``): its member sends every
        owner of its keys a frame each ``update_interval``, a record or
        a keep-alive.  The owner's own host always counts as heard,
        since a collocated publish never reaches the listener."""
        host = record.host
        return (host == self.host_id
                or self.node.orb.heard.get(host, _NEVER) >= cutoff)

    def candidates(self, repo_id: str, qos: QoSSpec) -> list:
        cutoff = self.env.now - self.config.record_timeout
        out = []
        for record in self.store.lookup(repo_id):
            if not self._live(record, cutoff):
                continue
            if not record.running_ior and not qos_admits(
                    record.free_cpu, record.free_memory, qos):
                continue
            out.append(record.to_candidate(
                group=f"shard:{self.host_id}"))
        return out


class ShardServant(Servant):
    """Remote face of one shard owner."""

    _interface = SHARD_IFACE

    def __init__(self, agent: ShardAgent) -> None:
        self.agent = agent

    def publish_batch(self, records: list) -> None:
        # The sender is the host the frame came from: the network sets
        # it, and the wire cannot corrupt it.
        self.agent.accept_publish(self.agent.node.orb.current_client,
                                  records)

    def alive(self) -> None:
        """A member's unchanged tick: the listener noted the frame's
        sender in ``ORB.heard``, which is all it carries."""

    def gossip(self, records: list, beacons: list) -> None:
        self.agent.accept_gossip(records, beacons)

    def lookup(self, repo_id: str, cpu: float, memory: float,
               bandwidth: float) -> list:
        qos = QoSSpec(cpu_units=cpu, memory_mb=memory,
                      bandwidth_bps=bandwidth)
        return [c.to_value()
                for c in self.agent.candidates(repo_id, qos)]

    def shard_hosts(self) -> list:
        return self.agent.membership.live_owners(
            self.agent.env.now, self.agent.config.member_timeout)

    def record_count(self) -> int:
        return len(self.agent.store)

    def is_shard_alive(self) -> bool:
        return True

"""Shard owners: the active agents of the federated registry.

A :class:`ShardAgent` runs on each owner host.  It keeps a
:class:`~repro.registry.federation.records.RecordStore` with its slice
of the provider-record space and a
:class:`~repro.registry.federation.records.MembershipTable` (owner
plane gossiped, member plane local), and runs
**seeded epidemic rounds**: every ``gossip_interval`` it picks
``fanout`` live peers from its own membership view (a named RNG
stream, so runs are reproducible), publishes its round delta onto the
node's event bus, and a batched bus subscription fans the flush out as
**one** marshalled ``gossip`` frame per peer via
:meth:`~repro.orb.core.ORB.send_oneway_fanout` — the PR-7 machinery,
retargeted at each round's peer set.

Anti-entropy: most rounds carry only the records merged since the
previous round, but every ``full_sync_every``-th round pushes the full
owned set, so an owner that lost its RAM (crash/restart) or missed
deltas (partition) converges back within a bounded number of rounds.

Peer discovery is itself epidemic: an agent starts knowing only its
``seed_peers`` and learns the rest of the owner population from the
beacons piggybacked on every gossip frame.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

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

#: Bus topic one agent's gossip rounds publish record deltas to.
GOSSIP_TOPIC = "federation.gossip"

METER = "federation.gossip"

SHARD_IFACE = InterfaceDef(
    "IDL:corbalc/Federation/Shard:1.0",
    "Shard",
    operations=[
        # Member -> owner: one publish round of provider records.
        # *epoch* stamps the round even when *records* is empty, so the
        # batch doubles as the member's liveness beacon.
        op("publish_batch", [("origin", tc_string), ("epoch", tc_double),
                             ("records", sequence_tc(PROVIDER_RECORD_TC))],
           oneway=True),
        # Owner <-> owner: one epidemic round: record delta and the
        # owner-plane beacons.  Member liveness is never relayed.
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
        self._last_round = 0.0
        self._rng = node.network.rngs.stream(
            f"federation.gossip.{node.host_id}")
        self._forwarder = None
        self._servant = ShardServant(self)
        node.orb.adapter(SHARD_ADAPTER).activate(self._servant,
                                                 key=SHARD_KEY)
        self._wire_bus()
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

    # -- wiring -------------------------------------------------------------
    def _wire_bus(self) -> None:
        from repro.events.bus import EventBus
        from repro.events.remote import FanoutForwarder

        bus = getattr(self.node, "bus", None)
        if bus is None:
            bus = EventBus(self.node.env, self.node.metrics)
            self.node.bus = bus
        self._bus = bus
        gossip_op = SHARD_IFACE.operations["gossip"]
        # Destinations start empty; each round retargets the forwarder
        # at that round's sampled peer set before flushing.
        self._forwarder = FanoutForwarder(
            self.node.orb, (), gossip_op,
            to_args=self._gossip_args, meter=METER)
        self._sub = bus.batch_subscribe(
            GOSSIP_TOPIC, self._forwarder.deliver,
            max_batch=self.config.gossip_batch,
            max_age=self.config.gossip_interval)

    def _gossip_args(self, events) -> tuple:
        records = [e.payload for e in events if e.payload is not None]
        # The owner plane is small and rides along whole on every frame.
        return (records, [b.to_value()
                          for b in self.membership.owner_beacons()])

    def _bootstrap(self) -> None:
        """Initial membership: self plus the configured seed peers."""
        now = self.env.now
        self.membership.apply(
            HostBeacon(self.host_id, now, alive=True))
        for peer in self.seed_peers:
            self.membership.apply(
                HostBeacon(peer, now, alive=True))

    # -- lifecycle ----------------------------------------------------------
    def _lose_state(self) -> None:
        # RAM is gone: records and learned membership alike.  Deltas
        # buffered in the flush window die with the host too.
        self.store.clear()
        self.membership.clear()
        self._sub.clear()

    def retire(self) -> None:
        """Permanently stand this owner down (drained or replaced).

        Unlike a crash, retirement unhooks the agent from its host: a
        later restart of the host must not resurrect the gossip loop,
        and the shard key must be free for a future re-promotion.
        """
        self.loop.stop()
        self._lose_state()
        self._sub.cancel()
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
        peers.update(self.seed_peers)
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
        # dead locally (the marking gossips onward); members that
        # stopped publishing here are dropped.
        for host in self.membership.silent(
                now - self.config.member_timeout):
            if host != self.host_id:
                self.membership.mark_dead(host, now)
        self.rounds += 1
        full_sync = (self.rounds % self.config.full_sync_every == 0)
        if full_sync:
            self.store.sweep(now - self.config.record_timeout)
            outgoing = self.store.records()
        else:
            outgoing = self.store.changed_since(self._last_round)
        self._last_round = now
        peers = self._pick_peers()
        if not peers:
            return
        self._forwarder.retarget([shard_ior(h) for h in peers])
        if outgoing:
            for record in outgoing:
                self._bus.publish(GOSSIP_TOPIC, record.to_value())
        else:
            # Beacon-only heartbeat round.
            self._bus.publish(GOSSIP_TOPIC, None)
        self._sub.flush()
        self.node.metrics.counter(names.FEDERATION_ROUNDS).inc()

    # -- state merging ------------------------------------------------------
    def _owns(self, repo_id: str) -> bool:
        return self.host_id in self.ring.owners(
            repo_id, self.config.replication)

    def _clamp_epoch(self, epoch: float, now: float) -> float:
        """Cap a reported epoch at ``now + epoch_tolerance``.

        Epochs are *soft-state TTL clocks*: a record whose epoch sits
        far in the future is never swept, beats every honest refresh,
        and keeps a dead host "fresh" in the membership view forever.
        One clock-skewed reporter could therefore poison every owner
        it reaches.  Owners only ever trust their own clock: whatever
        a publish or gossip frame claims, the accepted epoch is at
        most (almost) the local receive time.
        """
        limit = now + self.config.epoch_tolerance
        if epoch <= limit:
            return epoch
        self.node.metrics.counter(names.FEDERATION_EPOCH_CLAMPED).inc()
        return limit

    def _known_host(self, host: str) -> bool:
        """Membership/record host ids must name real population hosts.

        State arrives over an unreliable wire: a bit flip inside a
        host-id string survives CDR decoding (same length, different
        bytes) and, unchecked, a phantom host enters the membership
        table — after which gossip fan-out tries to *route* to it and
        the owner's loop dies on an unknown-destination error.  The
        topology is the ground truth of who can exist; anything else
        is dropped and counted.
        """
        if host in self.node.network.topology:
            return True
        self.node.metrics.counter(names.FEDERATION_REJECTED_UNKNOWN_HOST).inc()
        return False

    def accept_publish(self, origin: str, epoch: float,
                       records: Sequence[dict]) -> None:
        now = self.env.now
        epoch = self._clamp_epoch(epoch, now)
        if self._known_host(origin):
            self.membership.observe_member(origin, epoch)
        for value in records:
            record = ProviderRecord.from_value(value)
            if not self._known_host(record.host):
                continue
            clamped = self._clamp_epoch(record.epoch, now)
            if clamped != record.epoch:
                record = replace(record, epoch=clamped)
            self.store.apply(record, now)

    def accept_gossip(self, records: Sequence[dict],
                      beacons: Sequence[dict]) -> None:
        now = self.env.now
        for value in beacons:
            beacon = HostBeacon.from_value(value)
            if not self._known_host(beacon.host):
                continue
            clamped = self._clamp_epoch(beacon.epoch, now)
            if clamped != beacon.epoch:
                beacon = replace(beacon, epoch=clamped)
            self.membership.apply(beacon)
        for value in records:
            record = ProviderRecord.from_value(value)
            if not self._known_host(record.host):
                continue
            # Keep shards bounded: only merge records this owner is
            # responsible for under the current ring.
            if self._owns(record.repo_id):
                clamped = self._clamp_epoch(record.epoch, now)
                if clamped != record.epoch:
                    record = replace(record, epoch=clamped)
                self.store.apply(record, now)

    # -- queries ------------------------------------------------------------
    def candidates(self, repo_id: str, qos: QoSSpec) -> list:
        cutoff = self.env.now - self.config.record_timeout
        out = []
        for record in self.store.lookup(repo_id):
            if record.epoch < cutoff:
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

    def publish_batch(self, origin: str, epoch: float,
                      records: list) -> None:
        self.agent.accept_publish(origin, epoch, records)

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

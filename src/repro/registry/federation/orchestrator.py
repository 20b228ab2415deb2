"""Deployment and membership management of the federated registry.

:class:`FederatedRegistry` is the federation counterpart of
:class:`~repro.registry.groups.DistributedRegistry`: it elects shard
owners from the population (an even stride, so owners spread across
clusters), builds the shared :class:`ShardRing`, stands up a
:class:`ShardAgent` on every owner, and gives every node a
:class:`FederationReporter` (publishing its provider records to the
ring's owners) and a :class:`FederatedResolver`.

Membership changes are explicit: :meth:`remove_owner` stages the
change on the ring and rebalances it — reporters and resolvers see the
new ownership instantly because all of them share the orchestrator's
ring object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.obs import names
from repro.registry.mrm import MrmConfig
from repro.registry.softstate import PeriodicReporter
from repro.registry.view import NodeView
from repro.registry.federation.records import ProviderRecord
from repro.registry.federation.resolver import FederatedResolver
from repro.registry.federation.ring import RebalanceReport, ShardRing
from repro.registry.federation.shard import (
    FULL_SYNC_EVERY,
    SHARD_IFACE,
    ShardAgent,
    shard_ior,
)
from repro.util.errors import ConfigurationError

METER = "federation.publish"

_PUBLISH = SHARD_IFACE.operations["publish_batch"]
_ALIVE = SHARD_IFACE.operations["alive"]


@dataclass
class FederationConfig:
    """Everything tunable about the federated registry."""

    owners: int = 4                  # shard-owner population
    vnodes: int = 32                 # ring points per owner
    replication: int = 2             # owners per record / lookup width
    update_interval: float = 5.0     # member publish cadence
    gossip_interval: float = 2.0     # owner epidemic round cadence
    fanout: int = 3                  # peers per gossip round
    member_timeout: Optional[float] = None   # liveness staleness bound
    query_timeout: float = 2.0
    placement: str = "auto"
    seed_peer_count: int = 2         # static bootstrap peers per owner

    def __post_init__(self) -> None:
        if self.owners < 1:
            raise ConfigurationError("need at least one shard owner")
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if self.fanout < 1:
            raise ConfigurationError("fanout must be >= 1")
        if self.member_timeout is None:
            self.member_timeout = 3.0 * self.update_interval

    @property
    def record_timeout(self) -> float:
        """Provider-record TTL, three missed ticks: an owner offers a
        live record while its node heard the record's host this
        recently and sweeps it one tick of silence later, and sweeps a
        tombstone this long after its epoch."""
        return 3.0 * self.update_interval

    @property
    def epoch_tolerance(self) -> float:
        """How far into the future an incoming epoch may point before
        owners clamp it (defends the merge order of records and the
        owner plane's beacons against clock-skewed reporters): one
        gossip round."""
        return self.gossip_interval

    def mrm_config(self) -> MrmConfig:
        return MrmConfig(update_interval=self.update_interval,
                         member_timeout=self.member_timeout,
                         query_timeout=self.query_timeout)


def _after(epoch: float) -> float:
    """The least stamp that beats *epoch*: a key's stamps only rise, so
    a change made under a clock set back still wins its merge."""
    return math.nextafter(epoch, math.inf)


class FederationReporter(PeriodicReporter):
    """Publishes one node's provider records to their shard owners, by
    change.

    Each tick every owner of the node's keys (its records' repo-ids and
    ``host:<id>``) gets one frame.  It is ``publish_batch(share)``, the
    records of the keys that owner owns, when the share differs from
    the one sent it last tick, and on every ``FULL_SYNC_EVERY``-th tick;
    otherwise the bodiless ``alive()``.  A record's epoch is its change
    stamp: the reporter's clock (plus skew) at the tick its content
    first differed or at the last full tick, whichever is later, and
    past the stamp it replaces, so a change always changes the share's
    ``(key, epoch)`` list.  The full tick's stamp costs no bytes, since
    that tick sends every share anyway, and it bounds how long a stale
    copy can win: once the reporter forgot a stamp (a crash) or its
    clock went back, a new record may be stamped below the owners' copy
    of the old one, and loses to it until the clock passes that copy.
    A key the node stops providing goes out as a tombstone
    (``retired``), kept in the shares until a full tick after the one
    that made it has sent it again.  Memory is RAM: a crash empties it,
    so the restart tick sends every owner its share.
    """

    def __init__(self, node, ring, config: FederationConfig,
                 phase: float = 0.0) -> None:
        self.ring = ring
        self.config = config
        #: simulated clock error of this reporter: a record is stamped
        #: ``env.now + clock_skew`` when its content changes and on a
        #: full tick.  Fault injection (repro.chaos) sets this; owners
        #: clamp what they accept.
        self.clock_skew = 0.0
        #: repo-id -> its record as last built (live, or a tombstone
        #: not yet re-sent on a full tick)
        self._stamped: dict[str, ProviderRecord] = {}
        #: owner -> the ``(key, epoch)`` list it was sent last tick;
        #: only the last tick's owners
        self._sent: dict[str, list] = {}
        super().__init__(node, config.update_interval, phase)

    def _lose_state(self) -> None:
        self._stamped = {}
        self._sent = {}

    def _records(self, view: NodeView, stamp: float, full: bool) -> dict:
        """repo-id -> this tick's record: unchanged content keeps its
        stamp but on a *full* tick, and a key no longer provided becomes
        a tombstone."""
        snap = view.snapshot
        last = self._stamped
        out = {}
        for repo_id, component, version, ior, mobility in \
                self._view_candidates(view):
            record = ProviderRecord(
                repo_id=repo_id, host=self.node.host_id,
                component=component, version=version, running_ior=ior,
                mobility=mobility, free_cpu=snap.cpu_available,
                free_memory=snap.memory_available, is_tiny=snap.is_tiny,
                epoch=stamp)
            before = last.get(repo_id)
            if before is not None:
                if not full and before._content() == record._content():
                    record = before
                elif before.epoch >= stamp:
                    record = replace(record, epoch=_after(before.epoch))
            out[repo_id] = record
        for repo_id, before in last.items():
            if repo_id not in out:
                out[repo_id] = before if before.retired else replace(
                    before, retired=True,
                    epoch=max(stamp, _after(before.epoch)))
        return out

    @staticmethod
    def _view_candidates(view: NodeView):
        """(repo_id, component, version, running_ior, mobility) rows."""
        running = {}
        for repo_id, ior in view.running:
            running.setdefault(repo_id, ior)
        seen = set()
        for comp in view.components:
            for repo_id in comp.provides:
                if repo_id in seen:
                    continue
                seen.add(repo_id)
                yield (repo_id, comp.name, comp.version,
                       running.get(repo_id, ""), comp.mobility)
        for repo_id, ior in running.items():
            if repo_id not in seen:
                # Running-only: the package is gone but the instance
                # lives; resolvers may reuse, never instantiate.
                yield (repo_id, "", "", ior, "mobile")

    def _tick(self) -> None:
        node = self.node
        full = self.reports_sent % FULL_SYNC_EVERY == 0
        records = self._records(NodeView.collect(node),
                                node.env.now + self.clock_skew, full)
        shares: dict[str, list] = {}
        # Keep-alive: even a node providing nothing sends a frame to the
        # owners of its host key, so every host is heard by some owner.
        for owner in self.ring.owners(f"host:{node.host_id}",
                                      self.config.replication):
            shares.setdefault(owner, [])
        for record in records.values():
            for owner in self.ring.owners(record.repo_id,
                                          self.config.replication):
                shares.setdefault(owner, []).append(record)
        sent = {}
        unchanged = 0
        for owner, share in shares.items():
            stamps = [(record.key, record.epoch) for record in share]
            if full or self._sent.get(owner) != stamps:
                node.orb.send_oneway(
                    shard_ior(owner), _PUBLISH,
                    ([record.to_value() for record in share],),
                    meter=METER)
            else:
                node.orb.send_oneway(shard_ior(owner), _ALIVE, (),
                                     meter=names.FEDERATION_ALIVE)
                unchanged += len(share)
            sent[owner] = stamps
        self._sent = sent
        # A full tick retires the tombstones an earlier tick made: one
        # made now goes out on a full tick once more.
        last = self._stamped
        self._stamped = records if not full else {
            repo_id: record for repo_id, record in records.items()
            if not (record.retired and last.get(repo_id) is record)}
        if unchanged:
            node.metrics.counter(names.FEDERATION_PUBLISH_UNCHANGED).inc(
                unchanged)
        self.reports_sent += 1


class FederatedRegistry:
    """Owns the sharded registry deployed over a node population."""

    def __init__(self, nodes: dict,
                 config: Optional[FederationConfig] = None) -> None:
        self.nodes = nodes
        self.config = config or FederationConfig()
        self.ring = ShardRing(vnodes=self.config.vnodes)
        self.agents: dict[str, ShardAgent] = {}
        self.reporters: dict[str, FederationReporter] = {}
        self.resolvers: dict[str, FederatedResolver] = {}

    # -- deployment ---------------------------------------------------------
    def deploy(self, owner_hosts: Optional[Sequence[str]] = None) -> None:
        hosts = list(self.nodes)
        if not hosts:
            raise ConfigurationError("no nodes to federate")
        if owner_hosts is None:
            owner_hosts = self._elect_owners(hosts)
        owner_hosts = list(owner_hosts)
        for host in owner_hosts:
            if host not in self.nodes:
                raise ConfigurationError(f"unknown owner host {host!r}")
            self.ring.stage_add(host)
        self.ring.rebalance()
        for index, host in enumerate(owner_hosts):
            self.agents[host] = ShardAgent(
                self.nodes[host], self.ring, self.config,
                seed_peers=self._seed_peers(owner_hosts, index))
        interval = self.config.update_interval
        for index, host in enumerate(hosts):
            node = self.nodes[host]
            phase = (index * interval) / max(1, len(hosts))
            self.reporters[host] = FederationReporter(
                node, self.ring, self.config, phase=phase)
            resolver = FederatedResolver(node, self.ring, self.config)
            self.resolvers[host] = resolver
            node.resolver = resolver

    def _elect_owners(self, hosts: list[str]) -> list[str]:
        """Every ``len/owners``-th host: spreads owners over clusters."""
        n = min(self.config.owners, len(hosts))
        stride = max(1, len(hosts) // n)
        return [hosts[(i * stride) % len(hosts)] for i in range(n)]

    def _seed_peers(self, owners: Sequence[str], index: int) -> list[str]:
        """The next ``seed_peer_count`` owners, ring-order (static)."""
        k = min(self.config.seed_peer_count, max(0, len(owners) - 1))
        return [owners[(index + 1 + j) % len(owners)] for j in range(k)]

    # -- membership changes -------------------------------------------------
    def remove_owner(self, host: str) -> RebalanceReport:
        """Take a (dead or drained) owner off the ring and rebalance."""
        self.ring.stage_remove(host)
        report = self.ring.rebalance()
        agent = self.agents.pop(host, None)
        if agent is not None:
            now = agent.env.now
            agent.retire()
            for other in self.agents.values():
                other.membership.mark_dead(host, now)
        return report

    # -- liveness -----------------------------------------------------------
    def _serving(self):
        """The owners that hold a beacon of themselves.  Each owner
        applies its own beacon every round, and a crash empties its
        table until the restart bootstraps it again."""
        return [agent for agent in self.agents.values()
                if agent.membership.get(agent.host_id) is not None]

    def live_hosts(self) -> set[str]:
        """Hosts some owner currently believes alive.

        Each owner contributes its live owners (the gossiped owner
        plane, its own beacon included: a node never hears itself) and
        every host its node heard a frame from within
        ``member_timeout`` (``ORB.heard``).  A member sends to the ring
        owners of ``host:<id>`` every ``update_interval``, so no single
        owner hears the population: this union is the one reader.  H
        survives the loss of ``replication - 1`` of its key's owners;
        lose them all and H drops out until one restarts or the key is
        rebalanced, then returns within one ``update_interval``.  A
        crash empties an owner's tables until it restarts.
        """
        out: set[str] = set()
        timeout = self.config.member_timeout
        for agent in self.agents.values():
            now = agent.env.now
            out.update(agent.membership.live_owners(now, timeout))
            out.update(host for host, when in agent.node.orb.heard.items()
                       if when >= now - timeout)
        return out

    # -- convergence probes (tests and the C18 benchmark) -------------------
    def owner_views_agree(self) -> bool:
        """True when every serving owner sees the same live-owner set."""
        views = {tuple(agent.membership.live_owners(
            agent.env.now, self.config.member_timeout))
            for agent in self._serving()}
        return len(views) <= 1

    def records_converged(self, repo_id: str) -> bool:
        """True when every serving owner of *repo_id* agrees on it."""
        owners = set(self.ring.owners(repo_id, self.config.replication))
        states = {tuple(sorted((r.host, r.epoch, r.running_ior)
                               for r in agent.store.lookup(repo_id)))
                  for agent in self._serving() if agent.host_id in owners}
        return len(states) == 1

    def settle_time(self, rounds: float = 2.0) -> float:
        """Sim-time until views are warm (publishes + a gossip round)."""
        return (rounds * self.config.update_interval
                + 2.0 * self.config.gossip_interval + 0.5)

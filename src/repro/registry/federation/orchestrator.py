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

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.registry.mrm import MrmConfig
from repro.registry.softstate import PeriodicReporter
from repro.registry.view import NodeView
from repro.registry.federation.resolver import FederatedResolver
from repro.registry.federation.ring import RebalanceReport, ShardRing
from repro.registry.federation.shard import SHARD_IFACE, ShardAgent, shard_ior
from repro.util.errors import ConfigurationError

METER = "federation.publish"

_PUBLISH = SHARD_IFACE.operations["publish_batch"]


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
        """Provider-record TTL: three missed publishes."""
        return 3.0 * self.update_interval

    @property
    def epoch_tolerance(self) -> float:
        """How far into the future an incoming report epoch may point
        before owners clamp it (defends record TTLs and owner beacons
        against clock-skewed reporters): one gossip round."""
        return self.gossip_interval

    def mrm_config(self) -> MrmConfig:
        return MrmConfig(update_interval=self.update_interval,
                         member_timeout=self.member_timeout,
                         query_timeout=self.query_timeout)


class FederationReporter(PeriodicReporter):
    """Publishes one node's provider records to their shard owners."""

    def __init__(self, node, ring, config: FederationConfig,
                 phase: float = 0.0) -> None:
        self.ring = ring
        self.config = config
        #: simulated clock error of this reporter: its records stamp
        #: ``env.now + clock_skew`` as their epoch.  Fault injection
        #: (repro.chaos) sets this; owners clamp what they accept.
        self.clock_skew = 0.0
        super().__init__(node, config.update_interval, phase)

    def _records(self, view: NodeView, epoch: float) -> list:
        from repro.registry.federation.records import ProviderRecord

        out = []
        for cand in self._view_candidates(view):
            out.append(ProviderRecord(
                repo_id=cand[0], host=self.node.host_id,
                component=cand[1], version=cand[2],
                running_ior=cand[3], mobility=cand[4],
                free_cpu=view.snapshot.cpu_available,
                free_memory=view.snapshot.memory_available,
                is_tiny=view.snapshot.is_tiny, epoch=epoch))
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
        epoch = node.env.now + self.clock_skew
        view = NodeView.collect(node)
        by_owner: dict[str, list] = {}
        # Keep-alive: even a node providing nothing sends a frame to the
        # owners of its host key, so every host is heard by some owner.
        for owner in self.ring.owners(f"host:{node.host_id}",
                                      self.config.replication):
            by_owner.setdefault(owner, [])
        for record in self._records(view, epoch):
            for owner in self.ring.owners(record.repo_id,
                                          self.config.replication):
                by_owner.setdefault(owner, []).append(record.to_value())
        for owner, values in by_owner.items():
            node.orb.send_oneway(shard_ior(owner), _PUBLISH, (values,),
                                 meter=METER)
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

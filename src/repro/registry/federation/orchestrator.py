"""Deployment and membership management of the federated registry.

:class:`FederatedRegistry` is the federation counterpart of
:class:`~repro.registry.groups.DistributedRegistry`: it elects shard
owners from the population (an even stride, so owners spread across
clusters), builds the shared :class:`ShardRing`, stands up a
:class:`ShardAgent` on every owner, and gives every node a
:class:`FederationReporter` (publishing its provider records to the
ring's owners) and a :class:`FederatedResolver`.

Membership changes are explicit: :meth:`remove_owner` /
:meth:`add_owner` stage the change and :meth:`rebalance` applies it —
reporters and resolvers see the new ownership instantly because all of
them share the orchestrator's ring object, and anti-entropy gossip
backfills the records a new owner is now responsible for.
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
    full_sync_every: int = 4         # rounds between anti-entropy syncs
    gossip_batch: int = 256          # bus flush window for one round
    member_timeout: Optional[float] = None   # liveness staleness bound
    record_timeout: Optional[float] = None   # provider-record TTL
    query_timeout: float = 2.0
    placement: str = "auto"
    seed_peer_count: int = 2         # static bootstrap peers per owner
    #: how far into the future an incoming report epoch may point
    #: before owners clamp it (defends record TTLs and membership
    #: freshness against clock-skewed reporters).
    epoch_tolerance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.owners < 1:
            raise ConfigurationError("need at least one shard owner")
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if self.fanout < 1:
            raise ConfigurationError("fanout must be >= 1")
        if self.member_timeout is None:
            self.member_timeout = 3.0 * self.update_interval
        if self.record_timeout is None:
            self.record_timeout = 3.0 * self.update_interval
        if self.epoch_tolerance is None:
            self.epoch_tolerance = self.gossip_interval

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
        #: simulated clock error of this reporter: its publishes stamp
        #: ``env.now + clock_skew`` as their epoch.  Fault injection
        #: (repro.chaos) sets this; owners clamp what they accept.
        self.clock_skew = 0.0
        super().__init__(node, config.update_interval, phase)

    def _records(self, view: NodeView, epoch: float) -> list:
        from repro.registry.view import Candidate
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
        # Presence beacon: even a node providing nothing reports to the
        # owners of its host key, so liveness tracking covers everyone.
        for owner in self.ring.owners(f"host:{node.host_id}",
                                      self.config.replication):
            by_owner.setdefault(owner, [])
        for record in self._records(view, epoch):
            for owner in self.ring.owners(record.repo_id,
                                          self.config.replication):
                by_owner.setdefault(owner, []).append(record.to_value())
        for owner, values in by_owner.items():
            node.orb.send_oneway(shard_ior(owner), _PUBLISH,
                                 (node.host_id, epoch, values),
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
        self._live_cache: Optional[tuple[float, set]] = None

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

    def add_owner(self, host: str) -> RebalanceReport:
        """Promote *host* to shard owner and rebalance onto it."""
        if host not in self.nodes:
            raise ConfigurationError(f"unknown owner host {host!r}")
        existing = sorted(self.agents)
        self.ring.stage_add(host)
        report = self.ring.rebalance()
        self.agents[host] = ShardAgent(
            self.nodes[host], self.ring, self.config,
            seed_peers=existing[:max(1, self.config.seed_peer_count)])
        return report

    # -- liveness -----------------------------------------------------------
    def live_hosts(self) -> set[str]:
        """Hosts the owners' direct reports currently show alive.

        A host's liveness is soft state at the ring owners of
        ``host:<id>`` (its own publishes, never relayed), so no single
        owner knows the population: this union is the member plane's
        one reader.  H survives the loss of ``replication - 1`` of its
        key's owners; lose them all and H drops out until one restarts
        or the key is rebalanced, then returns within one
        ``update_interval``.

        Merged across live owners' views and cached per sim-instant:
        the deployment supervisor calls this once per instance per
        tick, and on 1k-host populations recomputing the merge every
        call would dominate the tick.
        """
        env_now = None
        for agent in self.agents.values():
            env_now = agent.env.now
            break
        if env_now is None:
            return set()
        if self._live_cache is not None and self._live_cache[0] == env_now:
            return self._live_cache[1]
        out: set[str] = set()
        for agent in self.agents.values():
            if not agent.node.host.alive:
                continue
            out.add(agent.host_id)
            out |= agent.membership.live(env_now,
                                         self.config.member_timeout)
        self._live_cache = (env_now, out)
        return out

    # -- convergence probes (tests and the C18 benchmark) -------------------
    def owner_views_agree(self) -> bool:
        """True when every live owner sees the same live-owner set."""
        views = []
        for agent in self.agents.values():
            if not agent.node.host.alive:
                continue
            views.append(tuple(agent.membership.live_owners(
                agent.env.now, self.config.member_timeout)))
        return len(set(views)) <= 1

    def records_converged(self, repo_id: str) -> bool:
        """True when every live owner of *repo_id* agrees on it."""
        states = []
        for host in self.ring.owners(repo_id, self.config.replication):
            agent = self.agents.get(host)
            if agent is None or not agent.node.host.alive:
                continue
            states.append(tuple(sorted(
                (r.host, r.epoch, r.running_ior)
                for r in agent.store.lookup(repo_id))))
        return len(set(states)) <= 1 and bool(states)

    def settle_time(self, rounds: float = 2.0) -> float:
        """Sim-time until views are warm (publishes + a gossip round)."""
        return (rounds * self.config.update_interval
                + 2.0 * self.config.gossip_interval + 0.5)

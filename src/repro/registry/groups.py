"""Group formation and the Distributed Registry orchestrator (§2.4.3).

"The protocol must also carry group formation deciding the nodes that
are going to implement the Meta-Resource Manager interface.  Each MRM
manages a group of nodes or a group of other MRMs, maintaining this
hierarchical structure and behavior."

:class:`DistributedRegistry` deploys the whole protocol stack over a
set of nodes: it forms groups (by topology cluster or fixed size),
places ``replicas`` MRMs per group, stands up a root MRM level when
there is more than one group, starts the configured reporter on every
node, installs a :class:`~repro.registry.queries.NetworkResolver` as
each node's dependency resolver, and (optionally) starts replica
supervision for automatic MRM promotion.

This is one of the registry's two back ends; the other is the sharded
:class:`~repro.registry.federation.FederatedRegistry`.  A deployment
picks one by constructing it.  Both expose what the deployment
supervisor and the chaos panel read — ``reporters``, ``resolvers``,
``live_hosts()`` and ``settle_time()`` — and nothing selects between
them at run time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.registry.mrm import MrmAgent, MrmConfig
from repro.registry.prediction import KEEPALIVE_FACTOR, PredictiveReporter
from repro.registry.queries import NetworkResolver
from repro.registry.replication import MrmSupervisor
from repro.registry.softstate import SoftStateReporter
from repro.registry.strongstate import StrongStateReporter
from repro.util.errors import ConfigurationError

MODES = ("soft", "strong", "predictive")
ROOT_GROUP = "root"


@dataclass
class RegistryConfig:
    """Everything tunable about the Distributed Registry."""

    update_interval: float = 5.0
    member_timeout: Optional[float] = None
    query_timeout: float = 2.0
    query_ttl: int = 4
    replicas: int = 1                 # MRMs per group
    mode: str = "soft"                # reporter flavour
    placement: str = "auto"           # resolver materialization policy
    prediction_tolerance: float = 10.0
    supervise: bool = False           # automatic MRM promotion
    supervise_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}")
        if self.replicas < 1:
            raise ConfigurationError("need at least one MRM per group")
        keepalive = KEEPALIVE_FACTOR * self.update_interval
        if (self.mode == "predictive" and self.member_timeout is not None
                and self.member_timeout <= keepalive):
            # An accurate model is silent for the whole keep-alive: a
            # shorter timeout expires every live member in between.
            raise ConfigurationError(
                f"predictive mode needs member_timeout > {keepalive} "
                f"({KEEPALIVE_FACTOR} x update_interval), "
                f"got {self.member_timeout}")

    def mrm_config(self) -> MrmConfig:
        return MrmConfig(update_interval=self.update_interval,
                         member_timeout=self.member_timeout,
                         query_timeout=self.query_timeout,
                         query_ttl=self.query_ttl)


@dataclass
class Group:
    group_id: str
    member_hosts: list[str]
    mrm_hosts: list[str] = field(default_factory=list)
    agents: list[MrmAgent] = field(default_factory=list)

    def mrm_iors(self) -> list:
        return [agent.ior for agent in self.agents]


def _first_hosts(tree: dict) -> list[str]:
    """Hosts of the lexically-first leaf group under *tree*."""
    first_key = next(iter(tree))
    content = tree[first_key]
    if isinstance(content, dict):
        return _first_hosts(content)
    return list(content)


def _tree_height(content) -> int:
    """Levels of MRMs *above* the leaf groups under *content*."""
    if isinstance(content, dict):
        return 1 + max(_tree_height(v) for v in content.values())
    return 0


def groups_by_cluster(host_ids: list[str]) -> dict[str, list[str]]:
    """Group ``c{i}h{j}`` style host ids by their cluster prefix.

    Hosts that do not match the pattern land in one ``misc`` group.
    """
    groups: dict[str, list[str]] = {}
    for host in host_ids:
        m = re.match(r"^(c\d+)h\d+$", host)
        key = m.group(1) if m else "misc"
        groups.setdefault(key, []).append(host)
    return groups


def groups_by_size(host_ids: list[str], group_size: int) -> dict[str, list[str]]:
    """Partition hosts into consecutive groups of *group_size*."""
    if group_size < 1:
        raise ConfigurationError("group_size must be >= 1")
    groups = {}
    for i in range(0, len(host_ids), group_size):
        groups[f"g{i // group_size}"] = list(host_ids[i:i + group_size])
    return groups


class DistributedRegistry:
    """Deploys and owns the registry protocol over a node population."""

    def __init__(self, nodes: dict, config: Optional[RegistryConfig] = None
                 ) -> None:
        self.nodes = nodes
        self.config = config or RegistryConfig()
        self.mrm_config = self.config.mrm_config()
        self.groups: dict[str, Group] = {}
        self.root: Optional[Group] = None
        self.reporters: dict[str, object] = {}
        self.resolvers: dict[str, NetworkResolver] = {}
        self.supervisors: list[MrmSupervisor] = []

    # -- deployment ----------------------------------------------------------
    def deploy(self, groups: dict[str, list[str]]) -> None:
        """Stand up MRMs, reporters, resolvers for *groups*."""
        if not groups:
            raise ConfigurationError("no groups to deploy")
        for group_id, hosts in groups.items():
            if not hosts:
                raise ConfigurationError(f"group {group_id!r} is empty")
            if group_id == ROOT_GROUP:
                raise ConfigurationError(
                    f"group id {ROOT_GROUP!r} is reserved"
                )

        multi_group = len(groups) > 1
        root_iors: tuple = ()
        if multi_group:
            # Root level: MRMs whose members are the group MRMs'
            # aggregates.  Placed in the first group, offset past the
            # hosts its own group-level MRMs will occupy.
            first_hosts = list(groups.values())[0]
            root_hosts = self._pick_mrm_hosts(first_hosts,
                                              offset=self.config.replicas)
            self.root = Group(ROOT_GROUP, member_hosts=[],
                              mrm_hosts=root_hosts)
            for host in root_hosts:
                agent = MrmAgent(self.nodes[host], ROOT_GROUP,
                                 config=self.mrm_config)
                self.root.agents.append(agent)
            root_iors = tuple(self.root.mrm_iors())

        for group_id, hosts in groups.items():
            group = Group(group_id, member_hosts=list(hosts))
            group.mrm_hosts = self._pick_mrm_hosts(hosts)
            for host in group.mrm_hosts:
                agent = MrmAgent(self.nodes[host], group_id,
                                 config=self.mrm_config,
                                 parent_iors=root_iors)
                group.agents.append(agent)
            self.groups[group_id] = group
            self._wire_members(group)
            if self.config.supervise:
                supervisor = MrmSupervisor(
                    self, group, interval=self.config.supervise_interval)
                self.supervisors.append(supervisor)

    def deploy_tree(self, tree: dict, _parent_iors: tuple = (),
                    _level: str = "") -> None:
        """Deploy a multi-level MRM hierarchy.

        *tree* maps group ids either to host lists (leaf groups) or to
        nested dicts (groups of groups): each inner level gets its own
        MRM layer — "each MRM manages a group of nodes or a group of
        other MRMs" (§2.4.3).  Example::

            registry.deploy_tree({
                "west": {"c0": [...], "c1": [...]},
                "east": {"c2": [...], "c3": [...]},
            })

        builds root -> {west, east} -> {c0..c3} -> nodes.
        """
        if not tree:
            raise ConfigurationError("empty hierarchy level")
        is_root_call = not _parent_iors
        if is_root_call and len(tree) > 1:
            first_hosts = _first_hosts(tree)
            root_hosts = self._pick_mrm_hosts(
                first_hosts, offset=self.config.replicas * _tree_height(tree))
            self.root = Group(ROOT_GROUP, member_hosts=[],
                              mrm_hosts=root_hosts)
            for host in root_hosts:
                self.root.agents.append(
                    MrmAgent(self.nodes[host], ROOT_GROUP,
                             config=self.mrm_config))
            _parent_iors = tuple(self.root.mrm_iors())

        for group_id, content in tree.items():
            if group_id == ROOT_GROUP:
                raise ConfigurationError(
                    f"group id {ROOT_GROUP!r} is reserved")
            if isinstance(content, dict):
                # an intermediate level: MRMs whose members are the
                # child groups' aggregates
                hosts = self._pick_mrm_hosts(
                    _first_hosts(content),
                    offset=self.config.replicas * _tree_height(content))
                mid = Group(group_id, member_hosts=[], mrm_hosts=hosts)
                for host in hosts:
                    mid.agents.append(MrmAgent(
                        self.nodes[host], group_id,
                        config=self.mrm_config,
                        parent_iors=_parent_iors))
                self.groups[group_id] = mid
                self.deploy_tree(content,
                                 _parent_iors=tuple(mid.mrm_iors()),
                                 _level=group_id)
            else:
                hosts = list(content)
                if not hosts:
                    raise ConfigurationError(
                        f"group {group_id!r} is empty")
                group = Group(group_id, member_hosts=hosts)
                group.mrm_hosts = self._pick_mrm_hosts(hosts)
                for host in group.mrm_hosts:
                    group.agents.append(MrmAgent(
                        self.nodes[host], group_id,
                        config=self.mrm_config,
                        parent_iors=_parent_iors))
                self.groups[group_id] = group
                self._wire_members(group)
                if self.config.supervise:
                    self.supervisors.append(MrmSupervisor(
                        self, group,
                        interval=self.config.supervise_interval))

    def _pick_mrm_hosts(self, hosts: list[str], offset: int = 0
                        ) -> list[str]:
        """Pick ``replicas`` serving hosts, starting *offset* entries in.

        Hierarchy levels stack their picks at different offsets (leaf
        groups at 0, each level above shifted by another ``replicas``)
        so the root MRMs and the first group's MRMs never pile onto the
        same first hosts — one host death must not take out two
        hierarchy levels at once.  When the pool is too small to avoid
        overlap the selection wraps around.
        """
        n = min(self.config.replicas, len(hosts))
        if not offset or len(hosts) <= n:
            return list(hosts[:n])
        start = offset % len(hosts)
        rotated = hosts[start:] + hosts[:start]
        return rotated[:n]

    def _wire_members(self, group: Group) -> None:
        iors = group.mrm_iors()
        interval = self.config.update_interval
        for index, host in enumerate(group.member_hosts):
            node = self.nodes[host]
            phase = (index * interval) / max(1, len(group.member_hosts))
            reporter = self._make_reporter(node, iors, phase)
            self.reporters[host] = reporter
            resolver = NetworkResolver(node, iors, self.mrm_config,
                                       placement=self.config.placement)
            self.resolvers[host] = resolver
            node.resolver = resolver

    def _make_reporter(self, node, iors, phase: float):
        if self.config.mode == "soft":
            return SoftStateReporter(node, iors, self.mrm_config,
                                     phase=phase)
        if self.config.mode == "strong":
            return StrongStateReporter(node, iors, self.mrm_config)
        return PredictiveReporter(
            node, iors, self.mrm_config,
            tolerance=self.config.prediction_tolerance, phase=phase)

    # -- post-deployment -----------------------------------------------------------
    def group_of(self, host: str) -> Group:
        for group in self.groups.values():
            if host in group.member_hosts:
                return group
        raise ConfigurationError(f"host {host!r} is in no group")

    def all_mrm_agents(self) -> list[MrmAgent]:
        agents = [a for g in self.groups.values() for a in g.agents]
        if self.root is not None:
            agents.extend(self.root.agents)
        return agents

    def live_hosts(self) -> set[str]:
        """Hosts the registry's soft-state views currently believe alive.

        A host is "alive" when some serving MRM still holds its member
        record — i.e. its periodic reports keep landing.  A host whose
        reports have been missed past the member timeout is swept from
        the tables and drops out of this set, which is exactly the
        paper's "the MRM can suppose a node of the group has been down
        after some time-out" signal the deployment supervisor keys on.
        """
        out: set[str] = set()
        for agent in self.all_mrm_agents():
            if not agent.node.host.alive:
                continue
            out.update(agent.members)
            # A serving MRM host is, by construction, alive.
            out.add(agent.node.host_id)
        return out

    def retarget_group(self, group: Group) -> None:
        """Point a group's reporters/resolvers at its current MRM set
        (called after a replica promotion)."""
        iors = group.mrm_iors()
        for host in group.member_hosts:
            reporter = self.reporters.get(host)
            if reporter is not None and hasattr(reporter, "retarget"):
                reporter.retarget(iors)
            resolver = self.resolvers.get(host)
            if resolver is not None:
                resolver.retarget(iors)

    def settle_time(self, rounds: float = 2.0) -> float:
        """Sim-time to run before the registry's views are warm."""
        return rounds * self.config.update_interval + 0.5

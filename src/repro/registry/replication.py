"""Peer-replicated MRMs and automatic replica re-creation (§2.4.3).

"To enhance fault-tolerance, the protocol must allow replicated peer
MRMs per group.  ...  the protocol must adapt by creating new replicas
as needed and catching replica failures."

Replication itself is achieved by members reporting to *every* MRM
replica (see :class:`~repro.registry.softstate.SoftStateReporter`), so
any surviving replica can answer queries immediately — that's the
failover path measured by the C5 benchmark.

:class:`MrmSupervisor` adds the adaptive part: a watchdog running on the
group's first non-MRM member pings the replicas; when one stays dead
past ``failures_needed`` probes, a fresh MRM is *promoted* on a healthy
member host, and the group's reporters/resolvers are retargeted (the
announce step).  Promotions are counted and timed for the benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.orb.exceptions import SystemException
from repro.registry.mrm import MRM_IFACE, MrmAgent
from repro.sim.hostloop import HostLoop

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.groups import DistributedRegistry, Group

_ALIVE = MRM_IFACE.operations["is_mrm_alive"]


class MrmSupervisor:
    """Watches one group's MRM replicas; promotes replacements."""

    def __init__(self, registry: "DistributedRegistry", group: "Group",
                 interval: float = 5.0, failures_needed: int = 2) -> None:
        self.registry = registry
        self.group = group
        self.interval = interval
        self.failures_needed = failures_needed
        self.promotions: list[tuple[float, str, str]] = []  # (t, old, new)
        self._fail_counts: dict[str, int] = {}
        watch_host = self._pick_watch_host()
        self.node = registry.nodes[watch_host]
        self.loop = HostLoop(self.node.env, self.node.host,
                             self._watch_loop)

    def _pick_watch_host(self) -> str:
        for host in self.group.member_hosts:
            if host not in self.group.mrm_hosts:
                return host
        return self.group.member_hosts[-1]

    # -- watchdog -------------------------------------------------------------
    def _watch_loop(self):
        while True:
            yield self.node.env.timeout(self.interval)
            for agent in list(self.group.agents):
                yield from self._probe(agent)

    def _probe(self, agent: MrmAgent):
        host = agent.node.host_id
        try:
            yield self.node.orb.invoke(
                agent.ior, _ALIVE, (),
                timeout=self.registry.mrm_config.query_timeout,
                meter="registry.supervise")
            self._fail_counts[host] = 0
        except SystemException:
            count = self._fail_counts.get(host, 0) + 1
            self._fail_counts[host] = count
            if count >= self.failures_needed:
                self._promote(agent)

    def _promote(self, dead_agent: MrmAgent) -> None:
        """Replace *dead_agent* with a fresh MRM on a healthy member."""
        dead_host = dead_agent.node.host_id
        replacement_host = self._pick_replacement()
        if replacement_host is None:
            return
        node = self.registry.nodes[replacement_host]
        parent_iors = (tuple(self.registry.root.mrm_iors())
                       if self.registry.root is not None else ())
        new_agent = MrmAgent(node, self.group.group_id,
                             config=self.registry.mrm_config,
                             parent_iors=parent_iors)
        # Stand the deposed MRM down: if its host returns it must not
        # come back as a second MRM of the group reporting an empty
        # aggregate to the parent.
        dead_agent.retire()
        self.group.agents = [a for a in self.group.agents
                             if a is not dead_agent] + [new_agent]
        self.group.mrm_hosts = [h for h in self.group.mrm_hosts
                                if h != dead_host] + [replacement_host]
        self._fail_counts.pop(dead_host, None)
        # Announce: members re-aim their reports and queries.
        self.registry.retarget_group(self.group)
        self.promotions.append(
            (self.node.env.now, dead_host, replacement_host))
        self.node.metrics.counter("registry.promotions").inc()

    def _pick_replacement(self):
        topology = self.node.network.topology
        for host in self.group.member_hosts:
            if host in self.group.mrm_hosts:
                continue
            if topology.host(host).alive:
                return host
        return None

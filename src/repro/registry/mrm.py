"""Meta-Resource Managers (§2.4.3).

"Meta-Resource Managers, instead of managing one machine resources,
maintain an updated view of a set of node's Resource Managers.  This
allows a hierarchical treatment of network resources."

An :class:`MrmAgent` runs on a designated host and keeps *soft* state:

- **members** — node views refreshed by periodic reports, expired once
  the node has not heard from the member for a timeout ("the MRM can
  suppose a node of the group has been down after some time-out");
- **children** — compressed :class:`~repro.registry.view.Aggregate`
  summaries from child MRMs (the hierarchy), expired the same way by
  the child MRM's host;
- a **parent**, to which it periodically reports its own aggregate and
  escalates queries its level cannot answer ("if current requirements
  cannot be met with current level resources, the protocol must request
  higher hierarchy level requests").

"Heard" is the node's own liveness clock, ``ORB.heard``: when a frame
from a host last arrived, whatever it carried.  A node never hears
itself (a collocated call skips the listener), so the MRM's own host,
which reports to it, and a child MRM on the same host never expire.

A crash wipes the agent's RAM (members/children) and the node's clock;
on restart it resumes with empty tables and repopulates from the next
round of reports — exactly the soft-state recovery story the paper
tells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    sequence_tc,
    tc_boolean,
    tc_double,
    tc_long,
    tc_string,
)
from repro.registry.view import (
    AGGREGATE_TC,
    Aggregate,
    CANDIDATE_TC,
    Candidate,
    NODE_VIEW_TC,
    NodeView,
    qos_admits,
)
from repro.sim.hostloop import HostLoop
from repro.xmlmeta.descriptors import QoSSpec

MRM_ADAPTER = "node"

MRM_IFACE = InterfaceDef(
    "IDL:corbalc/Registry/Mrm:1.0",
    "Mrm",
    operations=[
        # Soft-state member report; doubles as keep-alive.
        op("report", [("host", tc_string), ("view", NODE_VIEW_TC)],
           oneway=True),
        # Dead-reckoning variant: view plus a cpu-availability slope the
        # MRM extrapolates until the next report.
        op("report_model", [("host", tc_string), ("view", NODE_VIEW_TC),
                            ("cpu_slope", tc_double)], oneway=True),
        # Child MRM -> parent subtree summary.
        op("report_aggregate", [("agg", AGGREGATE_TC)], oneway=True),
        # Hierarchical component query.
        op("query", [("repo_id", tc_string), ("cpu", tc_double),
                     ("memory", tc_double), ("bandwidth", tc_double),
                     ("ttl", tc_long), ("exclude_group", tc_string)],
           sequence_tc(CANDIDATE_TC), cpu_cost=0.5),
        op("member_hosts", [], sequence_tc(tc_string)),
        op("is_mrm_alive", [], tc_boolean),
    ],
)


@dataclass
class MemberRecord:
    view: NodeView
    cpu_slope: float = 0.0
    model_time: float = 0.0


class MrmConfig:
    """Timing knobs of one MRM (shared with its reporters).

    The MRM sweeps expired members once per ``update_interval``.
    """

    def __init__(self, update_interval: float = 5.0,
                 member_timeout: Optional[float] = None,
                 query_timeout: float = 2.0,
                 query_ttl: int = 4) -> None:
        self.update_interval = update_interval
        self.member_timeout = (member_timeout if member_timeout is not None
                               else 3.0 * update_interval)
        self.query_timeout = query_timeout
        self.query_ttl = query_ttl


class MrmAgent:
    """An active MRM on one node: servant + sweeping + parent reporting."""

    def __init__(self, node, group_id: str,
                 config: Optional[MrmConfig] = None,
                 parent_iors: tuple[IOR, ...] = ()) -> None:
        self.node = node
        self.group_id = group_id
        self.config = config or MrmConfig()
        self.parent_iors = tuple(parent_iors)
        self.members: dict[str, MemberRecord] = {}
        self.children: dict[str, Aggregate] = {}
        self.expired_members = 0
        self._servant = MrmServant(self)
        self._key = f"mrm.{group_id}"
        node.orb.adapter(MRM_ADAPTER).activate(self._servant, key=self._key)
        self.loops = [HostLoop(self.env, node.host, self._sweep_loop,
                               on_crash=self._lose_state)]
        if self.parent_iors:
            self.loops.append(HostLoop(self.env, node.host,
                                       self._parent_report_loop))

    # -- identity -----------------------------------------------------------
    @property
    def ior(self) -> IOR:
        return IOR(MRM_IFACE.repo_id, self.node.host_id, MRM_ADAPTER,
                   self._key)

    @property
    def env(self):
        return self.node.env

    # -- lifecycle -------------------------------------------------------------
    def _lose_state(self) -> None:
        # RAM is gone.
        self.members.clear()
        self.children.clear()

    def retire(self) -> None:
        """Permanently stand this MRM down (deposed by a promotion).

        Unlike a crash, retirement ends both loops for good and frees
        the group's object key: when the host returns it is an ordinary
        member, not a second MRM reporting an empty aggregate upward.
        """
        for loop in self.loops:
            loop.stop()
        self.node.orb.adapter(MRM_ADAPTER).deactivate(self._key)
        self._lose_state()

    # -- soft state ---------------------------------------------------------------
    def accept_report(self, host: str, view: NodeView,
                      cpu_slope: float = 0.0) -> None:
        self.members[host] = MemberRecord(
            view=view, cpu_slope=cpu_slope, model_time=self.env.now)

    def accept_aggregate(self, aggregate: Aggregate) -> None:
        self.children[aggregate.group] = aggregate

    def _sweep_loop(self):
        while True:
            yield self.env.timeout(self.config.update_interval)
            for host in [h for h in self.members if self._silent(h)]:
                del self.members[host]
                self.expired_members += 1
            for group in [g for g, agg in self.children.items()
                          if self._silent(agg.mrm_host)]:
                del self.children[group]

    def _silent(self, host: str) -> bool:
        """Not heard from within ``member_timeout``.  Never this host:
        its calls here are collocated and never heard."""
        if host == self.node.host_id:
            return False
        deadline = self.env.now - self.config.member_timeout
        return self.node.orb.heard.get(host, float("-inf")) < deadline

    def _parent_report_loop(self):
        report_op = MRM_IFACE.operations["report_aggregate"]
        while True:
            yield self.env.timeout(self.config.update_interval)
            agg = self.build_aggregate()
            for parent in self.parent_iors:
                self.node.orb.send_oneway(parent, report_op,
                                          (agg.to_value(),),
                                          meter="registry.hier")

    def build_aggregate(self) -> Aggregate:
        repo_ids: set[str] = set()
        free_cpu = 0.0
        count = 0.0
        for rec in self.members.values():
            for comp in rec.view.components:
                repo_ids.update(comp.provides)
            for rid, _ior in rec.view.running:
                repo_ids.add(rid)
            free_cpu = max(free_cpu, self._member_free_cpu(rec))
            count += 1
        for agg in self.children.values():
            repo_ids.update(agg.repo_ids)
            free_cpu = max(free_cpu, agg.free_cpu)
            count += agg.member_count
        return Aggregate(group=self.group_id, mrm_host=self.node.host_id,
                         repo_ids=tuple(sorted(repo_ids)),
                         free_cpu=free_cpu, member_count=count)

    def _member_free_cpu(self, rec: MemberRecord) -> float:
        """Free CPU, extrapolated when the member reports a model."""
        base = rec.view.snapshot.cpu_available
        if rec.cpu_slope:
            base += rec.cpu_slope * (self.env.now - rec.model_time)
        return max(0.0, min(base, rec.view.snapshot.cpu_capacity))

    # -- queries --------------------------------------------------------------------
    def local_candidates(self, repo_id: str, qos: QoSSpec) -> list[Candidate]:
        out: list[Candidate] = []
        for rec in self.members.values():
            for cand in Candidate.from_view(rec.view, repo_id,
                                            group=self.group_id):
                free_cpu = self._member_free_cpu(rec)
                if not cand.is_running and not qos_admits(
                        free_cpu, cand.free_memory, qos):
                    # Reusing a running instance needs no headroom;
                    # only instantiation clears the QoS bar.
                    continue
                out.append(Candidate(
                    host=cand.host, component=cand.component,
                    version=cand.version, running_ior=cand.running_ior,
                    mobility=cand.mobility, free_cpu=free_cpu,
                    free_memory=cand.free_memory, is_tiny=cand.is_tiny,
                    group=self.group_id))
        return out

    def query(self, repo_id: str, qos: QoSSpec, ttl: int,
              exclude_group: str):
        """Hierarchical resolution; a generator (nested remote calls).

        Order: own members, then promising child subtrees, then escalate
        to the parent level (excluding this subtree).
        """
        self.node.metrics.counter("registry.queries.served").inc()
        local = self.local_candidates(repo_id, qos)
        if local:
            return local
        if ttl <= 0:
            return []
        query_op = MRM_IFACE.operations["query"]
        # Descend into children that claim the interface.
        for group, agg in sorted(self.children.items()):
            if group == exclude_group:
                continue
            if repo_id not in agg.repo_ids:
                continue
            child_ior = IOR(MRM_IFACE.repo_id, agg.mrm_host,
                            MRM_ADAPTER, f"mrm.{group}")
            try:
                values = yield self.node.orb.invoke(
                    child_ior, query_op,
                    (repo_id, qos.cpu_units, qos.memory_mb,
                     qos.bandwidth_bps, ttl - 1, ""),
                    timeout=self.config.query_timeout,
                    meter="registry.query")
            except SystemException:
                continue
            if values:
                return [Candidate.from_value(v) for v in values]
        # Escalate to the parent level.
        for parent in self.parent_iors:
            try:
                values = yield self.node.orb.invoke(
                    parent, query_op,
                    (repo_id, qos.cpu_units, qos.memory_mb,
                     qos.bandwidth_bps, ttl - 1, self.group_id),
                    timeout=self.config.query_timeout,
                    meter="registry.query")
            except SystemException:
                continue
            return [Candidate.from_value(v) for v in values]
        return []


class MrmServant(Servant):
    """Remote face of an MRM agent."""

    _interface = MRM_IFACE

    def __init__(self, agent: MrmAgent) -> None:
        self.agent = agent

    def report(self, host: str, view: dict) -> None:
        self.agent.accept_report(host, NodeView.from_value(view))

    def report_model(self, host: str, view: dict, cpu_slope: float) -> None:
        self.agent.accept_report(host, NodeView.from_value(view),
                                 cpu_slope=cpu_slope)

    def report_aggregate(self, agg: dict) -> None:
        self.agent.accept_aggregate(Aggregate.from_value(agg))

    def query(self, repo_id: str, cpu: float, memory: float,
              bandwidth: float, ttl: int, exclude_group: str):
        qos = QoSSpec(cpu_units=cpu, memory_mb=memory,
                      bandwidth_bps=bandwidth)
        # agent.query is a generator (it may make nested remote calls);
        # this servant method is therefore one too, and the ORB drives it.
        result = yield from self.agent.query(repo_id, qos, ttl,
                                             exclude_group)
        return [c.to_value() for c in result]

    def member_hosts(self) -> list[str]:
        return sorted(self.agent.members)

    def is_mrm_alive(self) -> bool:
        return True

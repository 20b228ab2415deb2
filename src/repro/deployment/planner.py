"""Placement planners: where should each assembly instance run?

The CORBA-LC :class:`RuntimePlanner` decides with *current* resource
views (dynamic data from the Reflection Architecture).  The baselines
model what the paper contrasts against:

- :class:`StaticPlanner` — "traditional component models force
  programmers to decide the hosts ... using a 'static' description"
  (§1): placement is computed once from static capacities and reused
  regardless of load (a CCM assembly).
- :class:`RandomPlanner` / :class:`RoundRobinPlanner` — naive spreads.

All planners return ``{instance_name: host_id}`` and raise
:class:`PlacementError` when an instance cannot fit anywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.node.resources import ResourceSnapshot
from repro.util.errors import ReproError
from repro.xmlmeta.descriptors import AssemblyDescriptor, QoSSpec


class PlacementError(ReproError):
    """No host can satisfy an instance's QoS requirements."""


class PlannerBase:
    """Shared helpers: per-host capacity tracking during planning."""

    #: Hosts whose profile is tiny are never given instances unless
    #: nothing else fits — the paper's PDAs "use all components
    #: remotely" (§3.1).
    avoid_tiny: bool = True

    def plan(self, assembly: AssemblyDescriptor,
             views: Sequence[ResourceSnapshot],
             qos_of: dict[str, QoSSpec]) -> dict[str, str]:
        raise NotImplementedError

    def replan_instance(self, assembly: AssemblyDescriptor,
                        instance_name: str,
                        views: Sequence[ResourceSnapshot],
                        qos_of: dict[str, QoSSpec],
                        exclude: Sequence[str] = ()) -> str:
        """Place one instance of an already-deployed assembly.

        Used for recovery: the rest of the assembly stays put, so only
        *instance_name* is planned, against current views minus the
        hosts in *exclude* (typically the host it was stranded on).
        """
        decls = [i for i in assembly.instances if i.name == instance_name]
        if not decls:
            raise PlacementError(
                f"assembly {assembly.name!r} has no instance "
                f"{instance_name!r}"
            )
        mini = AssemblyDescriptor(name=assembly.name, instances=decls,
                                  connections=[])
        excluded = set(exclude)
        usable = [v for v in views if v.host not in excluded]
        return self.plan(mini, usable, qos_of)[instance_name]

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _ordered_instances(assembly: AssemblyDescriptor,
                           qos_of: dict[str, QoSSpec]):
        """Biggest CPU demand first (best-fit-decreasing)."""
        def cpu(inst):
            return qos_of.get(inst.component, QoSSpec()).cpu_units
        return sorted(assembly.instances, key=cpu, reverse=True)

    @staticmethod
    def _free_tables(views: Sequence[ResourceSnapshot], dynamic: bool
                     ) -> tuple[dict[str, float], dict[str, float]]:
        """(free cpu, free memory) per host.

        ``dynamic=False`` ignores current commitments — that is exactly
        what makes a static plan blind to load.
        """
        cpu, mem = {}, {}
        for view in views:
            if dynamic:
                cpu[view.host] = view.cpu_available
                mem[view.host] = view.memory_available
            else:
                cpu[view.host] = view.cpu_capacity
                mem[view.host] = view.memory_capacity
        return cpu, mem

    def _fits(self, host: str, qos: QoSSpec, cpu: dict, mem: dict) -> bool:
        return (cpu.get(host, 0.0) >= qos.cpu_units
                and mem.get(host, 0.0) >= qos.memory_mb)

    def _commit(self, host: str, qos: QoSSpec, cpu: dict, mem: dict) -> None:
        cpu[host] -= qos.cpu_units
        mem[host] -= qos.memory_mb

    def _host_classes(self, views: Sequence[ResourceSnapshot]
                      ) -> tuple[list[str], list[str]]:
        """(preferred hosts, tiny hosts)."""
        normal = [v.host for v in views if not v.is_tiny]
        tiny = [v.host for v in views if v.is_tiny]
        return normal, tiny


class RuntimePlanner(PlannerBase):
    """CORBA-LC placement: balance load using *current* free resources.

    Greedy best-fit-decreasing: each instance goes to the host that
    retains the largest free-CPU fraction after accepting it, which
    spreads heavy components across the least loaded machines.
    """

    def plan(self, assembly, views, qos_of):
        cpu, mem = self._free_tables(views, dynamic=True)
        capacity = {v.host: v.cpu_capacity for v in views}
        normal, tiny = self._host_classes(views)
        placement: dict[str, str] = {}
        for inst in self._ordered_instances(assembly, qos_of):
            qos = qos_of.get(inst.component, QoSSpec())
            candidates = [h for h in normal if self._fits(h, qos, cpu, mem)]
            if not candidates and (tiny and not self.avoid_tiny or tiny):
                candidates = [h for h in tiny
                              if self._fits(h, qos, cpu, mem)]
            if not candidates:
                raise PlacementError(
                    f"no host fits {inst.name} "
                    f"(cpu={qos.cpu_units}, mem={qos.memory_mb})"
                )
            best = max(candidates,
                       key=lambda h: (cpu[h] - qos.cpu_units)
                       / max(capacity[h], 1e-9))
            placement[inst.name] = best
            self._commit(best, qos, cpu, mem)
        return placement


class StaticPlanner(PlannerBase):
    """CCM-style fixed assembly: placement from *static* capacity only.

    The plan is computed from nameplate capacities, ignoring whatever
    is already running — and, mimicking a hand-written deployment
    descriptor, the same assembly always yields the same mapping.
    """

    def plan(self, assembly, views, qos_of):
        cpu, mem = self._free_tables(views, dynamic=False)
        normal, tiny = self._host_classes(views)
        hosts = sorted(normal) or sorted(tiny)
        placement: dict[str, str] = {}
        index = 0
        for inst in assembly.instances:  # descriptor order, not sorted
            qos = qos_of.get(inst.component, QoSSpec())
            chosen: Optional[str] = None
            for offset in range(len(hosts)):
                host = hosts[(index + offset) % len(hosts)]
                if self._fits(host, qos, cpu, mem):
                    chosen = host
                    index = (index + offset + 1) % len(hosts)
                    break
            if chosen is None:
                raise PlacementError(f"static plan cannot fit {inst.name}")
            placement[inst.name] = chosen
            self._commit(chosen, qos, cpu, mem)
        return placement


class RandomPlanner(PlannerBase):
    """Uniform random placement among hosts that fit.

    Accepts either a ready generator or an
    :class:`~repro.sim.rng.RngRegistry`, from which the dedicated
    ``deployment.random_planner`` stream is drawn — so two planners
    built over equal-seeded registries place identically.
    """

    STREAM = "deployment.random_planner"

    def __init__(self, rng) -> None:
        stream = getattr(rng, "stream", None)
        self.rng: np.random.Generator = (
            stream(self.STREAM) if callable(stream) else rng)

    def plan(self, assembly, views, qos_of):
        cpu, mem = self._free_tables(views, dynamic=True)
        normal, tiny = self._host_classes(views)
        placement: dict[str, str] = {}
        for inst in assembly.instances:
            qos = qos_of.get(inst.component, QoSSpec())
            candidates = [h for h in normal if self._fits(h, qos, cpu, mem)]
            if not candidates:
                candidates = [h for h in tiny
                              if self._fits(h, qos, cpu, mem)]
            if not candidates:
                raise PlacementError(f"no host fits {inst.name}")
            chosen = candidates[int(self.rng.integers(0, len(candidates)))]
            placement[inst.name] = chosen
            self._commit(chosen, qos, cpu, mem)
        return placement


class RoundRobinPlanner(PlannerBase):
    """Cycle through hosts irrespective of load or heterogeneity."""

    def plan(self, assembly, views, qos_of):
        cpu, mem = self._free_tables(views, dynamic=True)
        normal, tiny = self._host_classes(views)
        hosts = sorted(normal) or sorted(tiny)
        placement: dict[str, str] = {}
        for i, inst in enumerate(assembly.instances):
            qos = qos_of.get(inst.component, QoSSpec())
            chosen = None
            for offset in range(len(hosts)):
                host = hosts[(i + offset) % len(hosts)]
                if self._fits(host, qos, cpu, mem):
                    chosen = host
                    break
            if chosen is None:
                raise PlacementError(f"no host fits {inst.name}")
            placement[inst.name] = chosen
            self._commit(chosen, qos, cpu, mem)
        return placement


class VerifiedPlanner(PlannerBase):
    """Wrap any planner with a static-verification gate.

    An alternative to handing the gate to the :class:`Deployer`
    directly, for callers that build their planner pipeline separately:
    ``plan`` first runs the gate's check against the node population it
    was constructed over, so an assembly that fails verification never
    produces a placement.  The gate is duck-typed (see
    :class:`repro.analysis.gate.DeploymentGate`) to keep this module
    free of an analysis dependency.
    """

    def __init__(self, inner: PlannerBase, gate, nodes) -> None:
        self.inner = inner
        self.gate = gate
        self.nodes = nodes

    def plan(self, assembly, views, qos_of):
        self.gate.check(assembly, self.nodes)
        return self.inner.plan(assembly, views, qos_of)

    def replan_instance(self, assembly, instance_name, views, qos_of,
                        exclude=()):
        # Recovery replans an already-verified assembly; re-checking a
        # one-instance slice would flag its (intentionally stripped)
        # connections, so delegate unverified.
        return self.inner.replan_instance(assembly, instance_name, views,
                                          qos_of, exclude=exclude)


def load_imbalance(views: Sequence[ResourceSnapshot]) -> float:
    """Max-min CPU utilization spread — the benchmarks' balance metric."""
    utils = [v.cpu_utilization for v in views if not v.is_tiny]
    if not utils:
        return 0.0
    return float(max(utils) - min(utils))

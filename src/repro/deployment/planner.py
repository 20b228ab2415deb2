"""Placement planners: where should each assembly instance run?

The CORBA-LC :class:`RuntimePlanner` decides with *current* resource
views (dynamic data from the Reflection Architecture).  The baselines
model what the paper contrasts against:

- :class:`StaticPlanner` — "traditional component models force
  programmers to decide the hosts ... using a 'static' description"
  (§1): placement is computed once from static capacities and reused
  regardless of load (a CCM assembly).
- :class:`RandomPlanner` / :class:`RoundRobinPlanner` — naive spreads.

All four run one search (:meth:`PlannerBase.plan`), return
``{instance_name: host_id}`` and raise :class:`PlacementError` when no
placement exists.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.node.resources import ResourceSnapshot
from repro.util.errors import ReproError
from repro.xmlmeta.descriptors import AssemblyDescriptor, QoSSpec

#: Hosts a search may examine after its first dead end before it
#: refuses the assembly: each instance it places afresh after that costs
#: one look at every host.  A plan the greedy pass completes spends none,
#: and a refusal costs the same at any host count.  The whole search of
#: 6 instances on 4 hosts examines at most 4 x (4 + 4**2 + ... + 4**5) =
#: 5,456.
SEARCH_BUDGET = 10_000


class PlacementError(ReproError):
    """No host can satisfy an instance's QoS requirements."""


class PlannerBase:
    """One placement search; a planner supplies an order and a preference.

    Instances are placed in :meth:`_order`, each on the first host of
    :meth:`_prefer` that still fits its CPU and memory.  Only when a
    later instance fits nowhere does the search back up, moving the
    latest instance with an untried host onto its next one.  The first
    complete plan is therefore the greedy plan whenever greedy succeeds.
    Tiny hosts are ranked after every fitting non-tiny host: the paper's
    PDAs "use all components remotely" (§3.1) unless nothing else
    completes the plan.
    """

    #: Plan from free resources; a static plan reads nameplate
    #: capacity, which is exactly what makes it blind to load.
    dynamic = True

    def _order(self, assembly: AssemblyDescriptor,
               qos_of: dict[str, QoSSpec]) -> list:
        return list(assembly.instances)  # descriptor order

    def _prefer(self, fitting: list[ResourceSnapshot],
                hosts: list[ResourceSnapshot], need: QoSSpec,
                free: dict[str, tuple[float, float]], placed: list[str]
                ) -> list[ResourceSnapshot]:
        """Rank *fitting*, the hosts of one class (*hosts*: all tiny or
        none) that fit *need*, the next instance.  *free* maps each host
        to its (cpu, memory) left; *placed* lists the hosts of the
        instances placed before it."""
        raise NotImplementedError

    def plan(self, assembly: AssemblyDescriptor,
             views: Sequence[ResourceSnapshot],
             qos_of: dict[str, QoSSpec]) -> dict[str, str]:
        order = self._order(assembly, qos_of)
        needs = [qos_of.get(inst.component, QoSSpec()) for inst in order]
        free = {v.host: (v.cpu_available, v.memory_available) if self.dynamic
                else (v.cpu_capacity, v.memory_capacity) for v in views}
        classes = ([v for v in views if not v.is_tiny],
                   [v for v in views if v.is_tiny])
        # Per placed instance: its host, the host's free pair before it,
        # and (one deeper, for the next instance) the hosts not yet tried.
        placed, prior, untried = [], [], []
        stuck, budget = None, SEARCH_BUDGET

        def ranked(need):
            for hosts in classes:
                fitting = [v for v in hosts
                           if free[v.host][0] >= need.cpu_units
                           and free[v.host][1] >= need.memory_mb]
                if fitting:
                    yield from self._prefer(fitting, hosts, need, free,
                                            placed)

        while len(placed) < len(order):
            k = len(placed)
            if len(untried) == k:
                untried.append(ranked(needs[k]))
                budget -= 0 if stuck is None else len(views)
            view = next(untried[k], None) if budget >= 0 else None
            if view is not None:
                cpu, mem = free[view.host]
                prior.append((cpu, mem))
                free[view.host] = (cpu - needs[k].cpu_units,
                                   mem - needs[k].memory_mb)
                placed.append(view.host)
                continue
            untried.pop()
            stuck = k if stuck is None else stuck
            if not placed or budget < 0:
                raise PlacementError(
                    f"no host fits {order[stuck].name} (cpu="
                    f"{needs[stuck].cpu_units}, mem={needs[stuck].memory_mb})")
            free[placed.pop()] = prior.pop()  # exactly: no float drift
        return {inst.name: host for inst, host in zip(order, placed)}

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


class RuntimePlanner(PlannerBase):
    """CORBA-LC placement: balance load using *current* free resources.

    Best-fit-decreasing: biggest CPU demand first, each instance to the
    host that retains the largest free-CPU fraction after accepting it,
    which spreads heavy components across the least loaded machines.
    """

    def _order(self, assembly, qos_of):
        return sorted(assembly.instances, reverse=True,
                      key=lambda i: qos_of.get(i.component,
                                               QoSSpec()).cpu_units)

    def _prefer(self, fitting, hosts, need, free, placed):
        return sorted(fitting, reverse=True,
                      key=lambda v: (free[v.host][0] - need.cpu_units)
                      / max(v.cpu_capacity, 1e-9))


class StaticPlanner(PlannerBase):
    """CCM-style fixed assembly: placement from *static* capacity only.

    The plan is computed from nameplate capacities, ignoring whatever
    is already running — and, mimicking a hand-written deployment
    descriptor, the same assembly always yields the same mapping: a
    cursor cycles through the hosts by name, starting after the host
    the previous instance took.
    """

    dynamic = False

    def _prefer(self, fitting, hosts, need, free, placed):
        last = placed[-1] if placed else ""
        return sorted(fitting, key=lambda v: (v.host <= last, v.host))


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

    def _prefer(self, fitting, hosts, need, free, placed):
        first = int(self.rng.integers(0, len(fitting)))
        return fitting[first:] + fitting[:first]


class RoundRobinPlanner(PlannerBase):
    """Cycle through hosts irrespective of load or heterogeneity: the
    k-th instance starts at the k-th host by name."""

    def _prefer(self, fitting, hosts, need, free, placed):
        cycle = sorted(v.host for v in hosts)
        start = cycle[len(placed) % len(cycle)]
        return sorted(fitting, key=lambda v: (v.host < start, v.host))


def load_imbalance(views: Sequence[ResourceSnapshot]) -> float:
    """Max-min CPU utilization spread — the benchmarks' balance metric."""
    utils = [v.cpu_utilization for v in views if not v.is_tiny]
    if not utils:
        return 0.0
    return float(max(utils) - min(utils))

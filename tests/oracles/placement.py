"""Placement references: the greedy planners and a brute-force search.

The placement law (``tests/property/test_placement_law.py``) holds
``repro.deployment.planner`` to two references:

- :func:`greedy_plan` -- the four planners as they were before they
  shared one search: fit-choose-commit, one pass, no second choice.
  The search must return exactly this plan wherever it succeeds.
- :func:`completable` -- every host for every remaining instance, so it
  finds a placement whenever one exists.
"""

from __future__ import annotations

from repro.xmlmeta.descriptors import QoSSpec

KINDS = ("runtime", "static", "random", "round_robin")


def need_of(inst, qos_of) -> QoSSpec:
    return qos_of.get(inst.component, QoSSpec())


def ordered(kind, assembly, qos_of) -> list:
    """The order a planner of *kind* places instances in: biggest CPU
    demand first (stable) for the run-time planner, descriptor order
    for the others."""
    if kind == "runtime":
        return sorted(assembly.instances, reverse=True,
                      key=lambda i: need_of(i, qos_of).cpu_units)
    return list(assembly.instances)


def free_tables(views, dynamic: bool) -> tuple[dict, dict]:
    """(cpu, memory) left per host: free now, or nameplate capacity."""
    if dynamic:
        return ({v.host: v.cpu_available for v in views},
                {v.host: v.memory_available for v in views})
    return ({v.host: v.cpu_capacity for v in views},
            {v.host: v.memory_capacity for v in views})


def greedy_plan(kind, assembly, views, qos_of, rng=None):
    """The plan the greedy planner of *kind* made, or None where it
    raised ``PlacementError``."""
    cpu, mem = free_tables(views, dynamic=kind != "static")
    capacity = {v.host: v.cpu_capacity for v in views}
    normal = [v.host for v in views if not v.is_tiny]
    tiny = [v.host for v in views if v.is_tiny]
    cycle = sorted(normal) or sorted(tiny)  # static and round-robin
    cursor = 0
    placement = {}
    for i, inst in enumerate(ordered(kind, assembly, qos_of)):
        q = need_of(inst, qos_of)

        def fits(h):
            return cpu[h] >= q.cpu_units and mem[h] >= q.memory_mb
        if kind in ("static", "round_robin"):
            start = cursor if kind == "static" else i
            turn = [cycle[(start + o) % len(cycle)]
                    for o in range(len(cycle))]
            chosen = next((h for h in turn if fits(h)), None)
            if chosen is not None:
                cursor = (cycle.index(chosen) + 1) % len(cycle)
        else:
            candidates = ([h for h in normal if fits(h)]
                          or [h for h in tiny if fits(h)])
            if not candidates:
                chosen = None
            elif kind == "runtime":
                chosen = max(candidates,
                             key=lambda h: (cpu[h] - q.cpu_units)
                             / max(capacity[h], 1e-9))
            else:
                chosen = candidates[int(rng.integers(0, len(candidates)))]
        if chosen is None:
            return None
        placement[inst.name] = chosen
        cpu[chosen] -= q.cpu_units
        mem[chosen] -= q.memory_mb
    return placement


def completable(views, needs, prefix, dynamic: bool) -> bool:
    """Can the instances with demands *needs* be placed so that the
    first ``len(prefix)`` of them sit on the hosts *prefix* names?"""
    cpu, mem = free_tables(views, dynamic)
    for host, q in zip(prefix, needs):
        cpu[host] -= q.cpu_units
        mem[host] -= q.memory_mb
        if cpu[host] < 0 or mem[host] < 0:
            return False

    def rest(k):
        if k == len(needs):
            return True
        q = needs[k]
        for v in views:
            h = v.host
            if cpu[h] >= q.cpu_units and mem[h] >= q.memory_mb:
                cpu[h] -= q.cpu_units
                mem[h] -= q.memory_mb
                found = rest(k + 1)
                cpu[h] += q.cpu_units
                mem[h] += q.memory_mb
                if found:
                    return True
        return False
    return rest(len(prefix))

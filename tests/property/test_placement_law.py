"""Placement as a law: the one search places every world that has a placement.

All four planners run ``PlannerBase.plan``, one depth-first search over
hosts in each planner's preference order.  Over small worlds (up to 4
hosts, a fifth of them tiny, up to 6 instances) the law checks, against
the references in ``tests/oracles/placement.py``:

- *fits*: a plan never commits more CPU or memory than a host has --
  free now, or nameplate capacity for the static planner;
- *greedy first*: wherever the greedy planner (the pre-search loop)
  succeeds, the search returns exactly its plan;
- *complete*: a plan is returned whenever the brute-force search finds
  one;
- *tiny last*: an instance sits on a tiny host only if no fitting
  non-tiny host for it, given the instances placed before it, completes
  the plan;
- *exclude*: ``replan_instance`` never picks an excluded host;
- *empty*: no views means ``PlacementError``, from every planner.

Five named mutants must each fail it (checked on a copy of the tree):
no backtracking (the greedy loop), tiny hosts ranked with the others,
memory left out of the fit test, ``exclude`` ignored, and an ascending
run-time ranking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.deployment.planner import (
    PlacementError,
    RandomPlanner,
    RoundRobinPlanner,
    RuntimePlanner,
    StaticPlanner,
)
from repro.node.resources import ResourceSnapshot
from repro.xmlmeta.descriptors import (
    AssemblyDescriptor,
    AssemblyInstance,
    QoSSpec,
)
from tests.oracles.placement import (
    KINDS,
    completable,
    free_tables,
    greedy_plan,
    need_of,
    ordered,
)

SETTINGS = settings(max_examples=250, deadline=None, derandomize=True,
                    report_multiple_bugs=False)

NAMES = ["a", "b", "c", "d"]
COMPONENTS = ["C0", "C1", "C2"]


def make(kind, seed):
    return {"runtime": RuntimePlanner, "static": StaticPlanner,
            "round_robin": RoundRobinPlanner,
            "random": lambda: RandomPlanner(np.random.default_rng(seed)),
            }[kind]()


@st.composite
def worlds(draw, min_hosts=0):
    # Names drawn apart from views order, so name order and view order
    # both matter; values are small multiples, so packs are often tight.
    names = draw(st.permutations(NAMES))
    n = draw(st.integers(min_hosts, len(NAMES)))
    views = [ResourceSnapshot(
        host=names[i], os="linux", arch="x86", orb="corba-lc",
        is_tiny=draw(st.sampled_from([False] * 4 + [True])),
        cpu_capacity=draw(st.sampled_from([100.0, 200.0, 300.0])),
        cpu_committed=draw(st.sampled_from([0.0, 50.0, 100.0])),
        memory_capacity=draw(st.sampled_from([64.0, 128.0, 256.0])),
        memory_committed=draw(st.sampled_from([0.0, 32.0, 64.0])),
        instances=0.0, timestamp=0.0) for i in range(n)]
    qos_of = {c: QoSSpec(cpu_units=draw(st.sampled_from([25.0, 50.0, 100.0])),
                         memory_mb=draw(st.sampled_from([16.0, 32.0, 64.0])))
              for c in COMPONENTS}
    m = draw(st.integers(0, 6))
    assembly = AssemblyDescriptor(name="app", instances=[
        AssemblyInstance(f"i{k}", draw(st.sampled_from(COMPONENTS)))
        for k in range(m)])
    return views, assembly, qos_of, draw(st.integers(0, 2 ** 16))


def plan_or_none(planner, assembly, views, qos_of):
    try:
        return planner.plan(assembly, views, qos_of)
    except PlacementError:
        return None


def check_plan_law(views, assembly, qos_of, seed):
    for kind in KINDS:
        dynamic = kind != "static"
        plan = plan_or_none(make(kind, seed), assembly, views, qos_of)
        order = ordered(kind, assembly, qos_of)
        needs = [need_of(i, qos_of) for i in order]
        greedy = greedy_plan(kind, assembly, views, qos_of,
                             np.random.default_rng(seed))
        if greedy is not None:
            assert plan == greedy, (kind, "greedy first")
        if plan is None:
            assert not completable(views, needs, [], dynamic), \
                (kind, "complete")
            continue
        cpu, mem = free_tables(views, dynamic)
        for inst, q in zip(order, needs):
            cpu[plan[inst.name]] -= q.cpu_units
            mem[plan[inst.name]] -= q.memory_mb
        assert all(left >= 0 for left in [*cpu.values(), *mem.values()]), \
            (kind, "fits")
        tiny = {v.host for v in views if v.is_tiny}
        hosts = [plan[i.name] for i in order]
        for k, host in enumerate(hosts):
            if host in tiny:
                for v in views:
                    if not v.is_tiny:
                        assert not completable(
                            views, needs, hosts[:k] + [v.host], dynamic), \
                            (kind, "tiny last", order[k].name, v.host)


@given(worlds())
@SETTINGS
def test_plans_fit_follow_greedy_and_are_complete(world):
    check_plan_law(*world)


@given(worlds(min_hosts=1), st.data())
@SETTINGS
def test_replan_never_picks_an_excluded_host(world, data):
    views, assembly, qos_of, seed = world
    if not assembly.instances:
        return
    inst = data.draw(st.sampled_from(assembly.instances))
    exclude = data.draw(st.lists(st.sampled_from([v.host for v in views]),
                                 unique=True))
    usable = [v for v in views if v.host not in exclude]
    for kind in KINDS:
        try:
            host = make(kind, seed).replan_instance(
                assembly, inst.name, views, qos_of, exclude=exclude)
        except PlacementError:
            assert not completable(usable, [need_of(inst, qos_of)], [],
                                   kind != "static"), (kind, "complete")
            continue
        assert host not in exclude, (kind, "exclude")


@pytest.mark.parametrize("kind", KINDS)
def test_empty_views_raise_placement_error(kind):
    assembly = AssemblyDescriptor(
        name="app", instances=[AssemblyInstance("i0", "C0")])
    with pytest.raises(PlacementError):
        make(kind, 0).plan(assembly, [], {})
    with pytest.raises(PlacementError):
        make(kind, 0).replan_instance(assembly, "i0", [], {})

"""C2 — run-time deployment vs. a static (CCM-style) assembly (§1, §2.4.4).

The paper's central claim: deciding placement at run time, with the
dynamic data the Reflection Architecture provides, beats a placement
fixed at deployment-design time.

Scenario: a heterogeneous cluster where some hosts already carry load
(that's the "changes in the load" a static plan cannot see).  An
application of 12 instances is then deployed by each policy; we score
the resulting CPU imbalance and makespan (the completion time of a
fixed work budget on the most loaded host).  The instances are
identical, so a placement is a count per host, and the ``optimum`` row
is the best of every such distribution that fits.
"""

import numpy as np

from _harness import Table, report
from repro.deployment import (
    Deployer,
    RandomPlanner,
    RoundRobinPlanner,
    RuntimePlanner,
    StaticPlanner,
)
from repro.deployment.planner import load_imbalance
from repro.sim.topology import DESKTOP, SERVER, star
from repro.testing import SimRig, counter_package
from repro.xmlmeta.descriptors import AssemblyDescriptor, AssemblyInstance


#: One instance's demand, declared by the hub's Counter package.
CPU_UNITS, MEMORY_MB = 80.0, 16.0


def make_rig(seed=0):
    rig = SimRig(star(7, hub_profile=SERVER, leaf_profile=DESKTOP),
                 seed=seed)
    hub = rig.node("hub")
    hub.install_package(counter_package(cpu_units=CPU_UNITS,
                                        memory_mb=MEMORY_MB))
    # Pre-existing load the static planner cannot see: h0..h2 are busy.
    for host in ("h0", "h1", "h2"):
        rig.node(host).install_package(counter_package())
        for _ in range(3):
            rig.node(host).container.create_instance("Counter")
            rig.node(host).resources.cpu_committed += 80.0
    return rig


def assembly(n=12):
    return AssemblyDescriptor(
        name="app",
        instances=[AssemblyInstance(f"i{k}", "Counter")
                   for k in range(n)])


def evaluate(planner_factory, seed=0):
    rig = make_rig(seed)
    dep = Deployer(rig.nodes, planner_factory(rig),
                   coordinator_host="hub")
    app = rig.run(until=dep.deploy(assembly()))
    views = rig.run(until=dep.gather_views())
    usable = [v for v in views if not v.is_tiny]
    imbalance = load_imbalance(usable)
    # Makespan proxy: each instance must execute a fixed work budget;
    # the busiest host finishes last.
    makespan = max(v.cpu_committed / v.cpu_capacity for v in usable)
    overloaded = sum(1 for v in usable if v.cpu_utilization > 0.9)
    return imbalance, makespan, overloaded


def distributions(n, room):
    """Every way to put *n* identical instances on hosts that can take
    at most ``room[i]`` each: a count per host."""
    if len(room) == 1:
        if n <= room[0]:
            yield (n,)
        return
    for k in range(min(n, room[0]) + 1):
        for rest in distributions(n - k, room[1:]):
            yield (k,) + rest


def optimum(n=12, seed=0):
    """The exact best (makespan, then imbalance) over every placement
    of C2's world: (imbalance, makespan, overloaded, placements)."""
    rig = make_rig(seed)
    dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
    usable = [v for v in rig.run(until=dep.gather_views()) if not v.is_tiny]
    room = [int(min(v.cpu_available // CPU_UNITS,
                    v.memory_available // MEMORY_MB)) for v in usable]
    best, count = None, 0
    for counts in distributions(n, room):
        count += 1
        loads = [(v.cpu_committed + k * CPU_UNITS) / v.cpu_capacity
                 for v, k in zip(usable, counts)]
        utils = [min(1.0, load) for load in loads]
        score = (max(loads), max(utils) - min(utils),
                 sum(1 for u in utils if u > 0.9))
        best = score if best is None else min(best, score)
    makespan, imbalance, overloaded = best
    return imbalance, makespan, overloaded, count


PLANNERS = [
    ("CORBA-LC run-time", lambda rig: RuntimePlanner()),
    ("static (CCM-like)", lambda rig: StaticPlanner()),
    ("round-robin", lambda rig: RoundRobinPlanner()),
    ("random", lambda rig: RandomPlanner(rig.rngs.stream("placement"))),
]


def experiment():
    """Run C2 once, assert the paper's claim, return its table."""
    rows, results = [], {}
    for label, factory in PLANNERS:
        imbalances, makespans, overloads = zip(
            *(evaluate(factory, seed) for seed in range(3)))
        rows.append([label,
                     f"{np.mean(imbalances):.3f}",
                     f"{np.mean(makespans):.3f}",
                     f"{np.mean(overloads):.1f}"])
        results[label] = (np.mean(imbalances), np.mean(makespans))
    imbalance, makespan, overloaded, count = optimum()
    rows.append(["optimum (exhaustive)", f"{imbalance:.3f}",
                 f"{makespan:.3f}", f"{overloaded:.1f}"])
    # The paper's claim must hold: run-time beats static on both axes.
    assert results["CORBA-LC run-time"][0] <= results["static (CCM-like)"][0]
    assert results["CORBA-LC run-time"][1] <= results["static (CCM-like)"][1]
    assert makespan <= results["CORBA-LC run-time"][1]
    return [Table("C2: placement policy quality on a loaded cluster",
                  ["policy", "CPU imbalance", "normalized makespan",
                   "hosts >90% cpu"], rows,
                  note="run-time placement sees current load; the static "
                       "assembly piles work onto already-busy hosts; "
                       f"optimum: best of all {count:,} placements that "
                       "fit")]


def test_deployment_policies(capsys):
    for table in experiment():
        report(capsys, *table)

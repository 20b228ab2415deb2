"""C14 — application availability under crash/restart churn (§2.4.3).

The paper demands that the framework "support spurious node failures
and node disconnections (and re-connections) gracefully".  This
benchmark measures what that buys: a four-instance assembly rides out
two scripted host outages (the second one outlasting the measurement
horizon) while a client probes every instance's facet twice a second.

Without supervision an instance is dark for as long as its host — or
forever, if the host never returns.  With the ApplicationSupervisor
the instance is re-planned onto a live host once the outage is
detected, so availability is bounded by detection + recovery, not by
outage length.

Detection is observed, not read off the simulator: both arms run the
paper's soft-state MRM registry (`DistributedRegistry`, one group with
its MRM on the hub) at `RegistryConfig` defaults — a report every 5 s,
a member presumed down 15 s after its last one — and the supervisor
strands an instance when its host leaves that view or when the hub's
ORB suspects it (a call to it timed out since it was last heard from).
The probing client runs on the hub too, so its timed-out reads are
evidence the supervisor sees.
"""

from _harness import Table, report
from repro.deployment import ApplicationSupervisor, Deployer, RuntimePlanner
from repro.orb.exceptions import SystemException
from repro.registry.groups import DistributedRegistry
from repro.sim.faults import FaultInjector
from repro.sim.topology import SERVER, star
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)

READ = COUNTER_IFACE.operations["read"]
#: (host, crash time, outage duration); the h1 outage outlives HORIZON,
#: so only a supervised run ever gets that instance back.
OUTAGES = [("h0", 15.0, 25.0), ("h1", 45.0, 60.0)]
HORIZON = 90.0
PROBE_STEP = 0.5
PROBE_TIMEOUT = 0.4
SUPERVISOR_INTERVAL = 2.0


def run(supervise: bool) -> dict:
    rig = SimRig(star(4, leaf_profile=SERVER), seed=0)
    hub = rig.node("hub")
    hub.install_package(counter_package(cpu_units=50.0))
    dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
    asm = AssemblyDescriptor(
        name="app",
        instances=[AssemblyInstance(f"i{k}", "Counter") for k in range(4)],
        connections=[AssemblyConnection("i0", "peer", "i1", "value")])
    app = rig.run(until=dep.deploy(asm))
    registry = DistributedRegistry(rig.nodes)
    registry.deploy({"star": list(rig.topology.host_ids())})
    rig.run(until=rig.env.now + registry.settle_time())
    sup = (ApplicationSupervisor(dep, registry,
                                 interval=SUPERVISOR_INTERVAL)
           if supervise else None)
    FaultInjector(rig.env, rig.topology).outages(OUTAGES)

    probes: dict[str, list] = {name: [] for name in app.placement}
    ok = bad = 0
    while rig.env.now < HORIZON:
        target = rig.env.now + PROBE_STEP
        for name in list(app.placement):
            ior = app.facet_ior(name, "value")
            started = rig.env.now
            try:
                rig.run(until=hub.orb.invoke(
                    ior, READ, (), timeout=PROBE_TIMEOUT,
                    meter="avail.probe"))
                probes[name].append((started, True))
                ok += 1
            except SystemException:
                probes[name].append((started, False))
                bad += 1
        if rig.env.now < target:
            rig.run(until=target)
    if sup is not None:
        sup.stop()

    # contiguous failed-probe windows = per-instance unavailability
    windows = []
    for seq in probes.values():
        down_since = None
        for t, good in seq:
            if good and down_since is not None:
                windows.append(t - down_since)
                down_since = None
            elif not good and down_since is None:
                down_since = t
        if down_since is not None:
            windows.append(HORIZON - down_since)
    recoveries = [r for r in (sup.recoveries if sup else [])
                  if r.kind == "replan"]
    return {
        "availability": ok / (ok + bad),
        "recoveries": len(recoveries),
        "deferred": rig.metrics.get("supervisor.recovery.deferred"),
        "mean_outage": sum(windows) / len(windows) if windows else 0.0,
        "max_outage": max(windows, default=0.0),
        "all_live": all(rig.topology.host(h).alive
                        for h in app.placement.values()),
    }


def experiment():
    """Run C14 once, assert the supervised run beats the unsupervised
    one on every axis, return its table."""
    healed = run(True)
    baseline = run(False)
    assert healed["availability"] > baseline["availability"], (
        healed, baseline)
    assert healed["recoveries"] >= 2
    assert healed["all_live"] and not baseline["all_live"]
    assert healed["max_outage"] < baseline["max_outage"]
    rows = [[label, f"{r['availability'] * 100:.1f} %",
             str(r["recoveries"]), f"{r['mean_outage']:.1f} s",
             f"{r['max_outage']:.1f} s", str(r["all_live"])]
            for label, r in (("supervised", healed),
                             ("unsupervised", baseline))]
    return [Table(
        "C14: facet availability under two host outages, probe 2 Hz",
        ["deployment", "availability", "recoveries", "mean outage",
         "max outage", "all instances live"], rows,
        note="second outage outlasts the run: only the supervised "
             "assembly gets that instance back (re-planned once a "
             "timed-out call makes the hub suspect its host)")]


def test_availability_under_churn(capsys):
    for table in experiment():
        report(capsys, *table)

"""C5 — peer-replicated MRMs and adaptive replica re-creation (§2.4.3).

"To enhance fault-tolerance, the protocol must allow replicated peer
MRMs per group ...  the protocol must adapt by creating new replicas as
needed and catching replica failures."

We kill the primary MRM and probe resolution every second.  With one
replica, queries fail until the supervisor promotes a replacement; with
two or more, the very next query fails over within its timeout.
"""

from _harness import Table, report
from repro.orb.exceptions import SystemException
from repro.registry.groups import DistributedRegistry, RegistryConfig
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package

KILL_AT = 20.0
PROBE_UNTIL = 80.0


def run(replicas: int, seed: int = 0):
    rig = SimRig(clustered(1, 8), seed=seed)
    rig.node("c0h7").install_package(counter_package())
    cfg = RegistryConfig(update_interval=2.0, replicas=replicas,
                         query_timeout=1.0, supervise=True,
                         supervise_interval=2.0)
    dr = DistributedRegistry(rig.nodes, cfg)
    dr.deploy({"c0": rig.topology.host_ids()})
    rig.run(until=dr.settle_time())

    primary = dr.groups["c0"].mrm_hosts[0]
    rig.run(until=KILL_AT)
    rig.topology.set_host_state(primary, alive=False)

    probes = []
    requester = rig.node("c0h6")
    while rig.env.now < PROBE_UNTIL:
        target = rig.env.now + 1.0
        try:
            started = rig.env.now
            rig.run(until=requester.request_component(
                COUNTER_IFACE.repo_id))
            probes.append((started, True, rig.env.now - started))
        except SystemException:
            probes.append((started, False, None))
        if rig.env.now < target:
            rig.run(until=target)

    failed = [p for p in probes if not p[1]]
    succeeded = [p for p in probes if p[1]]
    # recovery time: first success after the kill
    first_ok = min((p[0] for p in succeeded if p[0] >= KILL_AT),
                   default=float("inf"))
    recovery = first_ok - KILL_AT if first_ok != float("inf") else None
    promotions = sum(len(s.promotions) for s in dr.supervisors)
    mean_latency = (sum(p[2] for p in succeeded) / len(succeeded)
                    if succeeded else float("nan"))
    return {
        "failed": len(failed),
        "total": len(probes),
        "recovery": recovery,
        "promotions": promotions,
        "mean_latency": mean_latency,
    }


def experiment():
    """Run C5 once for one to three replicas, assert failover and
    re-creation, return its table."""
    results = {replicas: run(replicas) for replicas in (1, 2, 3)}
    assert results[2]["failed"] <= results[1]["failed"]
    assert results[2]["recovery"] <= results[1]["recovery"]
    # adaptation: the killed replica got re-created in every setup
    assert all(r["promotions"] >= 1 for r in results.values())
    rows = [[str(replicas), f"{r['failed']}/{r['total']}",
             f"{r['recovery']:.1f} s" if r["recovery"] is not None else "-",
             str(r["promotions"]), f"{r['mean_latency'] * 1000:.0f} ms"]
            for replicas, r in results.items()]
    return [Table(
        "C5: kill the primary MRM at t=20s, probe every 1s",
        ["MRM replicas", "failed queries", "service recovery",
         "replicas re-created", "mean query latency"], rows,
        note="with >=2 replicas queries fail over within one timeout; "
             "the supervisor then re-creates the lost replica")]


def test_mrm_failover(capsys):
    for table in experiment():
        report(capsys, *table)

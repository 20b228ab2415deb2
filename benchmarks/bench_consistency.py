"""C4 — soft vs. strong network consistency (§2.4.3).

"This soft consistency protocol leads to lower bandwidth utilization
and better scalability."

We sweep the node count and measure the registry-maintenance bandwidth
of both protocols over a fixed window, with a steady drizzle of
component activity (each create/destroy is a change the strong protocol
must propagate synchronously).  Churn is then added to show soft state
absorbing node flaps gracefully (staleness bounded by the timeout).
"""

from _harness import Table, report
from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_size,
)
from repro.sim.faults import ChurnModel, FaultInjector
from repro.sim.topology import star
from repro.testing import SimRig, counter_package

WINDOW = 60.0
INTERVAL = 5.0


def run(n_hosts: int, mode: str, churn: bool = False, seed: int = 0):
    rig = SimRig(star(n_hosts), seed=seed)
    rig.observe()  # per-meter latency histograms + pending gauge
    hub = rig.node("hub")
    hub.install_package(counter_package())
    cfg = RegistryConfig(update_interval=INTERVAL, mode=mode)
    dr = DistributedRegistry(rig.nodes, cfg)
    dr.deploy(groups_by_size(rig.topology.host_ids(),
                             group_size=n_hosts + 1))
    if churn:
        injector = FaultInjector(rig.env, rig.topology)
        ChurnModel(rig.env, injector, rig.rngs,
                   [f"h{i}" for i in range(n_hosts)],
                   mean_uptime=30.0, mean_downtime=8.0,
                   protected=["hub"])

    # activity: the hub keeps creating/destroying instances
    def activity():
        while True:
            inst = hub.container.create_instance("Counter")
            yield rig.env.timeout(2.0)
            hub.container.destroy_instance(inst.instance_id)
            yield rig.env.timeout(2.0)
    rig.env.process(activity())

    rig.run(until=WINDOW)
    meter = "registry.strong" if mode == "strong" else "registry.soft"
    msgs = rig.metrics.get(f"{meter}.msgs")
    byts = rig.metrics.get(f"{meter}.bytes")

    # acked-update latency (strong only; soft reports are fire-and-forget)
    lat = rig.metrics.find_histogram(f"{meter}.latency")
    p50 = lat.percentile(50) if lat is not None and lat.count else None
    p99 = lat.percentile(99) if lat is not None and lat.count else None

    # staleness: fraction of MRM member entries referring to dead hosts
    mrm = dr.groups["g0"].agents[0]
    stale = sum(1 for host in mrm.members
                if not rig.topology.host(host).alive)
    return msgs, byts, len(mrm.members), stale, (p50, p99)


def experiment():
    """Run C4 at three sizes under both protocols and C4b with and
    without churn, assert the bandwidth and staleness claims, return
    both tables."""
    rows, soft = [], {}
    for n in (8, 16, 32):
        soft[n] = run(n, "soft")
        soft_msgs, soft_bytes = soft[n][:2]
        strong_msgs, strong_bytes, _, _, (p50, p99) = run(n, "strong")
        ratio = strong_bytes / soft_bytes
        assert ratio > 2.0
        rows.append([str(n),
                     str(int(soft_msgs)), f"{soft_bytes/WINDOW:.0f}",
                     str(int(strong_msgs)), f"{strong_bytes/WINDOW:.0f}",
                     f"{ratio:.1f}x",
                     f"{p50*1e3:.1f}/{p99*1e3:.1f}" if p50 else "-"])

    churn_rows = []
    for scenario, result in (("no churn", soft[16]),
                             ("churn", run(16, "soft", churn=True))):
        _, byts, members, stale, _ = result
        assert stale <= 16  # never unbounded
        churn_rows.append([scenario, f"{byts/WINDOW:.0f}", str(members),
                           str(stale)])
    return [
        Table(f"C4: registry maintenance bandwidth over {WINDOW:.0f}s "
              f"(update interval {INTERVAL:.0f}s)",
              ["hosts", "soft msgs", "soft B/s", "strong msgs",
               "strong B/s", "strong/soft", "ack ms p50/p99"], rows,
              note="strong = per-change acked updates + fast heartbeats; "
                   "soft reports are fire-and-forget (no ack latency)"),
        Table("C4b: soft state with node churn (30s mean up, 8s mean down)",
              ["scenario", "B/s", "live members tracked", "stale entries"],
              churn_rows,
              note="stale entries are bounded by the 3x-interval timeout; "
                   "reconnecting nodes re-register with their next report"),
    ]


def test_soft_vs_strong(capsys):
    for table in experiment():
        report(capsys, *table)

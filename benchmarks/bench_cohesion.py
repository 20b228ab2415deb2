"""C13 — the Network Cohesion protocol (§2 R4, §2.4.1).

"In order to accommodate a potentially large number of hosts in a
distributed environment, the need for distributed scalable and
fault-tolerant protocols arise."

Measured: per-node maintenance traffic as the network grows (bounded
fan-out keeps it O(1) per node), and the crash-detection latency as a
function of the ping interval.
"""

from _harness import Table, report
from repro.registry.cohesion import deploy_cohesion
from repro.sim.topology import clustered
from repro.testing import SimRig

WINDOW = 60.0


def traffic(n_hosts: int):
    rig = SimRig(clustered(1, n_hosts), seed=13)
    deploy_cohesion(rig.nodes, ping_interval=3.0, fanout=3)
    rig.run(until=WINDOW)
    msgs = rig.metrics.get("cohesion.msgs")
    byts = rig.metrics.get("cohesion.bytes")
    return msgs / n_hosts / WINDOW, byts / n_hosts / WINDOW


def detection_latency(ping_interval: float, seed=14):
    rig = SimRig(clustered(1, 6), seed=seed)
    agents = deploy_cohesion(rig.nodes, ping_interval=ping_interval,
                             suspect_after=2)
    rig.run(until=30.0)
    victim = "c0h3"
    t_crash = rig.env.now
    rig.topology.set_host_state(victim, alive=False)
    observer = agents["c0h1"]
    while observer.is_peer_alive(victim):
        rig.run(until=rig.env.now + 0.25)
        if rig.env.now - t_crash > 600:
            break
    return rig.env.now - t_crash


def experiment():
    """Run C13a at four sizes and C13b at three ping intervals, assert
    the flat per-node cost and the interval dial, return both tables."""
    rows, per_node = [], {}
    for n in (4, 8, 16, 32):
        msgs_rate, bytes_rate = traffic(n)
        per_node[n] = msgs_rate
        rows.append([str(n), f"{msgs_rate:.2f}", f"{bytes_rate:.0f}"])
    # per-node cost must not grow with N (allow 50% noise)
    assert per_node[32] < per_node[4] * 1.5

    latency_rows, latency = [], {}
    for interval in (1.0, 3.0, 6.0):
        latency[interval] = detection_latency(interval)
        latency_rows.append([f"{interval:.0f} s",
                             f"{latency[interval]:.1f} s",
                             f"{latency[interval] / interval:.1f}x"])
    assert latency[1.0] < latency[3.0] < latency[6.0]
    return [
        Table("C13a: cohesion maintenance cost per node "
              "(fanout 3, ping every 3s)",
              ["hosts", "msgs/node/s", "B/node/s"], rows,
              note="bounded fan-out keeps per-node cost flat as the "
                   "network grows — requirement R4's scalability"),
        Table("C13b: crash-detection latency vs ping interval "
              "(suspect after 2 misses)",
              ["ping interval", "detection latency", "intervals"],
              latency_rows,
              note="latency tracks the ping period x rotation x misses — "
                   "the admin's freshness/traffic dial"),
    ]


def test_cohesion(capsys):
    for table in experiment():
        report(capsys, *table)

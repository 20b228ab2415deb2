"""C9 — grid computing: aggregation speedup + volunteer churn (§3.2).

"Components whose instances must be split and distributed into the
network to perform a highly-parallel task" — we measure the speedup of
the data-parallel Monte-Carlo component as workers grow, and the
overhead volunteer churn imposes on a farmed computation.
"""

import math

from _harness import Table, report
from repro.container.aggregation import AggregationCoordinator
from repro.grid import (
    IdleMonitor,
    MonteCarloPiExecutor,
    VolunteerAgent,
    VolunteerMaster,
    montecarlo_package,
)
from repro.sim.topology import SERVER, star
from repro.testing import SimRig

SAMPLES = 2_000_000


def aggregate(workers: int) -> tuple[float, float]:
    rig = SimRig(star(16, hub_profile=SERVER), seed=1)
    rig.node("hub").install_package(montecarlo_package())
    coordinator = AggregationCoordinator(rig.node("hub"))
    t0 = rig.env.now
    estimate = rig.run(until=coordinator.run(
        "MonteCarloPi", [f"h{i}" for i in range(workers)],
        {"total_samples": SAMPLES, "base_seed": 3}))
    return rig.env.now - t0, estimate


def volunteer_run(churny: bool, seed: int = 5):
    rig = SimRig(star(10, hub_profile=SERVER), seed=seed)
    hub = rig.node("hub")
    hub.install_package(montecarlo_package())
    master = VolunteerMaster(hub, "MonteCarloPi", shard_timeout=30.0)
    if churny:
        mean_busy, mean_idle = 8.0, 15.0
    else:
        mean_busy, mean_idle = 1e9, 1e9
    for i in range(10):
        node = rig.node(f"h{i}")
        monitor = IdleMonitor(node, rig.rngs.stream(f"idle.{i}"),
                              mean_busy=mean_busy, mean_idle=mean_idle)
        VolunteerAgent(node, monitor, master.ior)
    # heavy shards: ~5 sim-seconds each on a desktop, so user churn
    # genuinely interleaves with the computation
    shards = [{"samples": 2_000_000, "seed": i} for i in range(20)]
    t0 = rig.env.now
    partials = rig.run(until=master.submit(shards))
    estimate = MonteCarloPiExecutor.merge_values(partials)
    return rig.env.now - t0, estimate, master.requeues


def experiment():
    """Run C9 once, assert its claims, return the aggregation speedup
    table (C9a) and the volunteer-farm table (C9b)."""
    speedup_rows, times = [], {}
    for workers in (1, 2, 4, 8, 16):
        elapsed, estimate = aggregate(workers)
        times[workers] = elapsed
        speedup = times[1] / elapsed
        speedup_rows.append([str(workers), f"{elapsed:.2f} s",
                             f"{speedup:.1f}x",
                             f"{speedup/workers*100:.0f}%",
                             f"{estimate:.4f}"])
    assert times[8] < times[1] / 4
    farm_rows, completion = [], {}
    for churny, pool in ((False, "all idle, no churn"),
                         (True, "users come and go")):
        elapsed, estimate, requeues = volunteer_run(churny)
        assert abs(estimate - math.pi) < 0.01
        completion[churny] = elapsed
        farm_rows.append([pool, f"{elapsed:.1f} s", str(requeues),
                          f"{estimate:.4f}"])
    assert completion[True] >= completion[False]
    return [
        Table(f"C9a: Monte-Carlo pi, {SAMPLES:,} samples, split/gather "
              "aggregation",
              ["workers", "sim time", "speedup", "efficiency",
               "pi estimate"], speedup_rows,
              note="near-linear until coordination overheads bite"),
        Table("C9b: volunteer computing, 20 shards over 10 workstations",
              ["pool", "completion (sim)", "requeues", "pi"], farm_rows,
              note="churn slows completion but never corrupts the result; "
                   "shards from withdrawn volunteers are re-queued"),
    ]


def test_grid(capsys):
    for table in experiment():
        report(capsys, *table)

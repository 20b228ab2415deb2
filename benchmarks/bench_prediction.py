"""C10 — predictive resource reporting (§2.4.3).

"Predictive and adaptive techniques can be used to predict the resource
availability, thus reducing even more the bandwidth requirements."

Hosts carry a slowly ramping background load (highly predictable).  We
sweep the dead-reckoning tolerance and compare report counts/bytes and
worst-case view error against the plain periodic soft-state reporter.
"""

from _harness import Table, report
from repro.registry.groups import DistributedRegistry, RegistryConfig
from repro.sim.topology import star
from repro.testing import SimRig
from repro.xmlmeta.descriptors import QoSSpec

WINDOW = 120.0
INTERVAL = 2.0


def run(mode: str, tolerance: float = 10.0):
    rig = SimRig(star(8), seed=0)
    cfg = RegistryConfig(update_interval=INTERVAL, mode=mode,
                         prediction_tolerance=tolerance)
    dr = DistributedRegistry(rig.nodes, cfg)
    dr.deploy({"g0": rig.topology.host_ids()})

    # Predictable background load: each leaf ramps committed CPU up and
    # back down, 4 units per second.
    def ramp(node):
        step = QoSSpec(cpu_units=4.0)
        while True:
            for _ in range(40):
                node.resources.cpu_committed += step.cpu_units
                yield rig.env.timeout(1.0)
            for _ in range(40):
                node.resources.cpu_committed -= step.cpu_units
                yield rig.env.timeout(1.0)
    for i in range(8):
        rig.env.process(ramp(rig.node(f"h{i}")))

    # Track worst-case error between the MRM's belief and the truth.
    mrm = dr.groups["g0"].agents[0]
    worst = [0.0]

    def audit():
        while True:
            yield rig.env.timeout(1.0)
            for host, rec in mrm.members.items():
                node = rig.nodes[host]
                if not node.alive:
                    continue
                believed = mrm._member_free_cpu(rec)
                actual = node.resources.snapshot().cpu_available
                worst[0] = max(worst[0], abs(believed - actual))
    rig.env.process(audit())

    rig.run(until=WINDOW)
    meter = "registry.pred" if mode == "predictive" else "registry.soft"
    return (rig.metrics.get(f"{meter}.msgs"),
            rig.metrics.get(f"{meter}.bytes"), worst[0])


def experiment():
    """Run C10 once, assert its claims, return its table."""
    base_msgs, base_bytes, base_err = run("soft")
    rows = [["periodic soft state", f"{base_msgs:.0f}",
             f"{base_bytes/WINDOW:.0f}", f"{base_err:.1f}"]]
    results = {}
    for tolerance in (5.0, 20.0, 80.0):
        msgs, byts, err = run("predictive", tolerance)
        results[tolerance] = (msgs, err)
        rows.append([f"predictive, tol={tolerance:.0f} cpu",
                     f"{msgs:.0f}", f"{byts/WINDOW:.0f}", f"{err:.1f}"])
    assert results[20.0][0] < base_msgs / 2       # big bandwidth saving
    assert results[5.0][1] <= results[80.0][1]    # accuracy ordering
    return [Table(f"C10: reporting cost vs view accuracy over "
                  f"{WINDOW:.0f}s (ramping load)",
                  ["reporter", "reports", "B/s",
                   "worst view error (cpu units)"], rows,
                  note="dead reckoning trades bounded staleness for "
                       "bandwidth; looser tolerance => fewer reports, "
                       "larger error")]


def test_prediction_bandwidth_vs_accuracy(capsys):
    for table in experiment():
        report(capsys, *table)

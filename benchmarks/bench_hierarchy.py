"""C3 — hierarchical vs. flat resource lookup (§2.4.3).

"Hierarchical protocol: the protocol must allow logical grouping and
incremental resource lookup ...  This reduces network load and exploits
locality."

We sweep network size (clusters x hosts) and measure messages and WAN
(backbone) bytes per query for:

- the hierarchical MRM protocol, querying a component that is in the
  requester's own cluster (locality hit) and one that is in a far
  cluster (escalation);
- the flat baseline, which floods every node's registry.
"""

from _harness import Table, report
from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
)
from repro.registry.queries import FloodResolver
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package


def make(clusters, size, seed=0):
    rig = SimRig(clustered(clusters, size), seed=seed)
    # one provider in the requester's cluster, one in the far cluster
    rig.node("c0h1").install_package(counter_package(name="NearComp"))
    far = f"c{clusters-1}h1"
    rig.node(far).install_package(counter_package(name="FarComp"))
    cfg = RegistryConfig(update_interval=2.0)
    dr = DistributedRegistry(rig.nodes, cfg)
    dr.deploy(groups_by_cluster(rig.topology.host_ids()))
    rig.run(until=dr.settle_time())
    return rig, dr, cfg


def measure(clusters, size):
    n = clusters * size
    # -- hierarchical, local hit
    rig, dr, cfg = make(clusters, size)
    before_m = rig.metrics.get("registry.query.msgs")
    before_b = rig.metrics.get("net.bytes.backbone")
    rig.run(until=rig.node("c0h2").request_component(
        COUNTER_IFACE.repo_id))
    local_msgs = rig.metrics.get("registry.query.msgs") - before_m
    local_wan = rig.metrics.get("net.bytes.backbone") - before_b

    # -- hierarchical, cross-cluster (remove the near provider first)
    rig2, dr2, _ = make(clusters, size)
    rig2.node("c0h1").repository.remove(
        "NearComp", rig2.node("c0h1").repository.lookup("NearComp").version)
    rig2.run(until=rig2.env.now + 2 * 2.0 + 0.5)  # view refresh
    before_m = rig2.metrics.get("registry.query.msgs")
    rig2.run(until=rig2.node("c0h2").request_component(
        COUNTER_IFACE.repo_id))
    far_msgs = rig2.metrics.get("registry.query.msgs") - before_m

    # -- flood baseline
    rig3, dr3, cfg3 = make(clusters, size)
    flood = FloodResolver(rig3.node("c0h2"), rig3.topology.host_ids(),
                          cfg3.mrm_config())
    before_m = rig3.metrics.get("registry.flood.msgs")
    rig3.run(until=flood.resolve(COUNTER_IFACE.repo_id))
    flood_msgs = rig3.metrics.get("registry.flood.msgs") - before_m

    return n, local_msgs, far_msgs, flood_msgs, local_wan


def measure_depth(levels: int):
    """36 hosts organized as 2 or 3 MRM levels; far-provider query."""
    rig = SimRig(clustered(6, 6), seed=9)
    rig.node("c5h5").install_package(counter_package())
    cfg = RegistryConfig(update_interval=2.0, query_ttl=8)
    dr = DistributedRegistry(rig.nodes, cfg)
    hosts = rig.topology.host_ids()

    def cluster(i):
        return [h for h in hosts if h.startswith(f"c{i}")]

    if levels == 2:
        dr.deploy({f"c{i}": cluster(i) for i in range(6)})
    else:
        dr.deploy({
            "west": {f"c{i}": cluster(i) for i in range(3)},
            "east": {f"c{i}": cluster(i) for i in range(3, 6)},
        })
    rig.run(until=dr.settle_time(rounds=3))
    m0 = rig.metrics.get("registry.query.msgs")
    ior = rig.run(until=rig.node("c0h1").request_component(
        COUNTER_IFACE.repo_id))
    assert ior.host_id == "c5h5"
    query_msgs = rig.metrics.get("registry.query.msgs") - m0
    maint = rig.metrics.get("registry.hier.msgs")
    return query_msgs, maint


def experiment():
    """Run C3 over four network sizes and C3b over two tree depths,
    assert the scaling claims, return both tables."""
    rows, data = [], {}
    for clusters, size in [(2, 4), (4, 4), (4, 8), (8, 8)]:
        n, local_msgs, far_msgs, flood_msgs, local_wan = measure(
            clusters, size)
        rows.append([f"{n} ({clusters}x{size})", str(int(local_msgs)),
                     str(int(far_msgs)), str(int(flood_msgs)),
                     str(int(local_wan))])
        data[n] = (local_msgs, far_msgs, flood_msgs)
    biggest = max(data)
    local_msgs, far_msgs, flood_msgs = data[biggest]
    assert local_msgs <= 2              # one query to the group MRM
    assert flood_msgs > far_msgs        # hierarchy wins at scale
    assert flood_msgs >= biggest - 1    # flood really is O(N)

    depth = {levels: measure_depth(levels) for levels in (2, 3)}
    # both depths resolve; depth changes hop count, not correctness
    assert depth[3][0] >= depth[2][0]
    return [
        Table("C3: query cost vs network size",
              ["hosts", "hier msgs (local hit)", "hier msgs (escalate)",
               "flood msgs", "WAN bytes (local hit)"], rows,
              note="flood grows linearly with N; hierarchical stays flat "
                   "for local hits and bounded by tree depth otherwise"),
        Table("C3b: MRM hierarchy depth (36 hosts, worst-case "
              "cross-network query)",
              ["hierarchy", "query msgs (worst case)",
               "maintenance msgs (warm-up)"],
              [[f"{levels} levels", str(int(q)), str(int(m))]
               for levels, (q, m) in depth.items()],
              note="deeper trees add hops to worst-case queries but cut "
                   "the root's fan-in (6 children -> 2)"),
    ]


def test_hierarchy(capsys):
    for table in experiment():
        report(capsys, *table)

"""C18 — federated (sharded) registry vs the flat flood baseline.

The federation PR's scaling claim: partitioning the provider-record
space over a ring of shard owners keeps registry lookups fast on large
populations, because a resolver asks **only its repo-id's shard
neighborhood** — O(replication) invocations — instead of interrogating
the population.  The flat baseline is the same one benchmark C3 uses:
:class:`~repro.registry.queries.FloodResolver`, which walks every
node's registry per query, O(N) invocations over the WAN.

Both arms run the same seeded query schedule on the same
``clustered(C, S)`` topology (the full run uses 32x32 = 1024 hosts)
with the same providers:

- **sharded** — :class:`FederatedRegistry` with one owner per cluster
  (kept off the WAN gateways); each lookup is one ``Shard.lookup`` at
  the repo-id's primary ring owner.
- **flat flood** — no registry infrastructure at all (zero maintenance
  traffic); each lookup interrogates every host in turn.

Measured per arm: lookup latency percentiles in **simulated** seconds
(the network model serializes every link FIFO, so the flood's O(N)
WAN crossings are what its p99 captures) plus total wire messages
(which includes the sharded arm's publish/gossip maintenance — the
price it pays for O(1) lookups).  The sharded arm then takes churn:
the primary owners of sampled repo-ids are killed and dropped from the
ring, a surviving owner's cluster is partitioned at the WAN past the
failure-detection timeout and healed, and we measure the sim-time
(and gossip rounds) from the heal until the surviving owners'
membership views agree and the rebalanced records converge on their
new owners.

Run ``python benchmarks/bench_federation.py --selftest`` for the
assertion-only mode wired into ``make check`` (smaller topology, same
gates: sharded p99 <= flat p99, bounded post-churn convergence).
"""

from _harness import report, stash
from repro.idl import compile_idl
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.shard import (
    FULL_SYNC_EVERY,
    SHARD_IFACE,
    shard_ior,
)
from repro.registry.mrm import MrmConfig
from repro.registry.queries import FloodResolver
from repro.testing import CounterExecutor, SimRig
from repro.sim.topology import clustered
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

_SHARD_LOOKUP = SHARD_IFACE.operations["lookup"]

# The full C18 run (the paper-scale datapoint) and the fast gate run.
SCALE_FULL = dict(clusters=32, size=32, owners=32, components=24,
                  queries=32, window=64.0, update=10.0, gossip=2.0,
                  drain=4500.0)
SCALE_SMALL = dict(clusters=8, size=8, owners=8, components=8,
                   queries=24, window=24.0, update=5.0, gossip=1.0,
                   drain=600.0)
SCALE_WARM = dict(clusters=2, size=4, owners=2, components=2,
                  queries=4, window=4.0, update=2.0, gossip=1.0,
                  drain=60.0)

# ---------------------------------------------------------------------------
# A family of distinct service interfaces, so lookups spread over the
# ring instead of all hashing to one shard neighborhood.
# ---------------------------------------------------------------------------

K_MAX = max(SCALE_FULL["components"], SCALE_SMALL["components"])

_BENCH_IDL = ('#pragma prefix "corbalc"\nmodule BenchFed {\n'
              + "".join(f"  interface Svc{i} {{ long ping(); }};\n"
                        for i in range(K_MAX))
              + "};\n")
_BENCH_MOD = compile_idl(_BENCH_IDL).BenchFed
IFACES = [getattr(_BENCH_MOD, f"Svc{i}") for i in range(K_MAX)]


def service_package(index: int) -> ComponentPackage:
    """An installable provider of the ``index``-th bench interface."""
    iface = IFACES[index]
    entry = "demo.counter"
    GLOBAL_BINARIES.register(entry, CounterExecutor)
    name = f"BenchSvc{index}"
    soft = SoftwareDescriptor(
        name=name, version=Version.parse("1.0.0"), vendor="repro-bench",
        abstract="Synthetic federation-benchmark service.",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/svc")],
    )
    comp = ComponentTypeDescriptor(
        name=name,
        provides=[PortDecl("svc", iface.repo_id)],
        qos=QoSSpec(cpu_units=1.0, memory_mb=2.0),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("benchfed", _BENCH_IDL)
    builder.add_binary("bin/any/svc", synthetic_payload(500, seed=18))
    return ComponentPackage(builder.build())


# ---------------------------------------------------------------------------
# Rig assembly
# ---------------------------------------------------------------------------

def _provider_host(index: int, clusters: int, size: int) -> str:
    """Spread providers over clusters on the h1 slot (h0 = gateway)."""
    return f"c{index % clusters}h{1 + (index // clusters) % (size - 1)}"


def _make_rig(scale: dict, seed: int) -> tuple:
    # The chords backbone (gateway ring + power-of-two chords) keeps
    # the WAN diameter logarithmic; a 32-gateway chain would congest on
    # its middle links and swamp both arms with a topology artifact.
    rig = SimRig(clustered(scale["clusters"], scale["size"],
                           backbone="chords"), seed=seed)
    repo_ids = []
    for i in range(scale["components"]):
        host = _provider_host(i, scale["clusters"], scale["size"])
        rig.node(host).install_package(service_package(i))
        repo_ids.append(IFACES[i].repo_id)
    return rig, repo_ids


def _owner_hosts(scale: dict) -> list[str]:
    """One owner per cluster on the h2 slot: off the WAN gateways (h0)
    and off the provider slot (h1), so killing an owner in the churn
    phase takes down a shard, not a cluster's connectivity."""
    clusters, size = scale["clusters"], scale["size"]
    return [f"c{i % clusters}h{2 + (i // clusters) % (size - 2)}"
            for i in range(scale["owners"])]


def _query_load(rig, make_find, scale, latencies):
    """Launch the seeded query schedule: ``make_find(host, repo_id)``
    returns the arm's lookup generator, yielding its candidate count."""
    env = rig.env
    rng = rig.rngs.stream("bench.federation.load")
    hosts = rig.topology.host_ids()
    repo_ids = [IFACES[i].repo_id for i in range(scale["components"])]

    def one_query(delay, host, repo_id):
        yield env.timeout(delay)
        t0 = env.now
        count = yield from make_find(host, repo_id)
        latencies.append((env.now - t0, count))

    for _ in range(scale["queries"]):
        delay = float(rng.uniform(0.0, scale["window"]))
        host = hosts[int(rng.integers(0, len(hosts)))]
        repo_id = repo_ids[int(rng.integers(0, len(repo_ids)))]
        env.process(one_query(delay, host, repo_id))


def _drain(rig, latencies, n_queries, deadline):
    while len(latencies) < n_queries and rig.env.now < deadline:
        rig.run(until=min(rig.env.now + 5.0, deadline))


def _percentile(values, q):
    ordered = sorted(values)
    idx = int(round(q / 100.0 * (len(ordered) - 1)))
    return ordered[min(idx, len(ordered) - 1)]


def _summary(latencies, n_queries, rig, scale) -> dict:
    waits = [w for w, _count in latencies]
    return {
        "hosts": scale["clusters"] * scale["size"],
        "queries": len(latencies),
        "lost": n_queries - len(latencies),
        "answered": sum(1 for _w, count in latencies if count > 0),
        "p50_s": _percentile(waits, 50) if waits else None,
        "p99_s": _percentile(waits, 99) if waits else None,
        "max_s": max(waits) if waits else None,
        "messages": rig.metrics.get("net.messages"),
    }


# ---------------------------------------------------------------------------
# The two arms
# ---------------------------------------------------------------------------

def run_sharded(scale: dict, seed: int = 0) -> dict:
    rig, repo_ids = _make_rig(scale, seed)
    fed = FederatedRegistry(rig.nodes, FederationConfig(
        owners=scale["owners"], replication=2,
        update_interval=scale["update"],
        gossip_interval=scale["gossip"]))
    fed.deploy(owner_hosts=_owner_hosts(scale))
    rig.run(until=fed.settle_time())

    def shard_find(host, repo_id):
        owner = fed.ring.owners(repo_id, 1)[0]
        values = yield rig.node(host).orb.invoke(
            shard_ior(owner), _SHARD_LOOKUP, (repo_id, 0.0, 0.0, 0.0),
            timeout=scale["drain"], meter="bench.lookup")
        return len(values)

    latencies = []
    _query_load(rig, shard_find, scale, latencies)
    _drain(rig, latencies, scale["queries"],
           deadline=rig.env.now + scale["window"] + scale["drain"])
    out = _summary(latencies, scale["queries"], rig, scale)
    out["owners"] = scale["owners"]
    out.update(_churn_convergence(rig, fed, repo_ids, scale))
    return out


def _churn_convergence(rig, fed, repo_ids, scale) -> dict:
    """Scripted churn, then time re-convergence.

    Two stressors back to back: the primary owners of the first
    sampled repo-ids are killed and dropped from the ring, and one
    surviving owner's whole cluster is partitioned at its WAN gateway
    for longer than the failure-detection timeout — so the fleet
    genuinely marks it dead and its records go stale — before the
    partition heals.  Convergence (owner views agree + probe records
    identical across replicas) is measured from the heal: the time the
    epidemic plane needs to absorb both the membership change and the
    blackout's stale state.
    """
    victims = []
    for repo_id in repo_ids:
        primary = fed.ring.owners(repo_id, 1)[0]
        if primary not in victims:
            victims.append(primary)
        if len(victims) == 2:
            break
    for victim in victims:
        rig.topology.set_host_state(victim, alive=False)
        fed.remove_owner(victim)

    # Partition: cut every WAN link of a surviving owner's gateway.
    isolated = sorted(fed.agents)[0]
    gateway = isolated.split("h")[0] + "h0"
    wan = [link for link in rig.topology.links()
           if link.link_class.name == "wan"
           and gateway in (link.a, link.b)]
    for link in wan:
        rig.topology.set_link_state(link.a, link.b, up=False)
    blackout = 3.0 * scale["update"] + 2.0 * scale["gossip"]
    rig.run(until=rig.env.now + blackout)
    for link in wan:
        rig.topology.set_link_state(link.a, link.b, up=True)

    start = rig.env.now
    probe = repo_ids[: min(4, len(repo_ids))]

    def converged():
        return (fed.owner_views_agree()
                and all(fed.records_converged(r) for r in probe))

    deadline = start + 60.0 * scale["gossip"] + 3.0 * scale["update"]
    while not converged() and rig.env.now < deadline:
        rig.run(until=rig.env.now + scale["gossip"])
    seconds = rig.env.now - start
    return {
        "churn_killed": len(victims),
        "partition_s": blackout,
        "converged": converged(),
        "convergence_s": seconds,
        "convergence_rounds": seconds / scale["gossip"],
    }


def run_flood(scale: dict, seed: int = 0) -> dict:
    rig, _repo_ids = _make_rig(scale, seed)
    hosts = rig.topology.host_ids()
    config = MrmConfig(query_timeout=2.0)

    def flood_find(host, repo_id):
        resolver = FloodResolver(rig.node(host), hosts, config)
        candidates = yield from resolver._find(repo_id, QoSSpec())
        return len(candidates)

    latencies = []
    _query_load(rig, flood_find, scale, latencies)
    _drain(rig, latencies, scale["queries"],
           deadline=rig.env.now + scale["window"] + scale["drain"])
    out = _summary(latencies, scale["queries"], rig, scale)
    out["owners"] = 0
    return out


# ---------------------------------------------------------------------------
# Measurement, gates, reporting
# ---------------------------------------------------------------------------

def _measure(scale: dict) -> tuple:
    # First touches pay one-off codec generation; warm both arms on a
    # toy topology so that cost never lands in the measured runs.
    run_sharded(SCALE_WARM)
    run_flood(SCALE_WARM)
    return run_sharded(scale), run_flood(scale)


def _check(sharded: dict, flood: dict, scale: dict) -> None:
    # The sharded registry answers every lookup, with candidates.
    assert sharded["lost"] == 0, sharded
    assert sharded["answered"] == sharded["queries"], sharded
    # The flood arm must complete enough queries to make its
    # percentiles meaningful (it may lose some to the drain deadline
    # at full scale — itself a scaling datapoint).
    assert flood["queries"] >= scale["queries"] // 2, flood
    # The headline gate: shard-neighborhood lookups keep tail latency
    # at or below the flat flood's on the same population and load.
    assert sharded["p99_s"] <= flood["p99_s"], (
        sharded["p99_s"], flood["p99_s"])
    assert sharded["p50_s"] <= flood["p50_s"], (
        sharded["p50_s"], flood["p50_s"])
    # Post-churn the gossip plane re-converges within bounded rounds.
    assert sharded["converged"], sharded
    assert sharded["convergence_rounds"] <= (
        3 * FULL_SYNC_EVERY
        + scale["update"] / scale["gossip"]), sharded


def test_federation_scaling(benchmark, capsys):
    sharded, flood = _measure(SCALE_FULL)
    benchmark.pedantic(lambda: run_sharded(SCALE_WARM, seed=1),
                       rounds=1, iterations=1)
    rows = [
        [f"sharded ({sharded['owners']} owners)",
         f"{sharded['p50_s']:.3f}", f"{sharded['p99_s']:.3f}",
         sharded["queries"], f"{sharded['messages']:,.0f}"],
        ["flat flood",
         f"{flood['p50_s']:.3f}", f"{flood['p99_s']:.3f}",
         flood["queries"], f"{flood['messages']:,.0f}"],
    ]
    report(capsys,
           f"C18: registry lookup on {sharded['hosts']} hosts "
           f"({SCALE_FULL['queries']} queries / "
           f"{SCALE_FULL['window']:.0f}s)",
           ["registry", "p50 (sim s)", "p99 (sim s)", "completed",
            "net msgs"], rows,
           note="flood interrogates all hosts per query; sharded asks "
                "one ring owner (its msgs include publish/gossip "
                "maintenance). post-churn convergence: "
                f"{sharded['convergence_s']:.1f}s "
                f"({sharded['convergence_rounds']:.0f} gossip rounds) "
                f"after killing {sharded['churn_killed']} owners and "
                f"healing a {sharded['partition_s']:.0f}s partition")
    _check(sharded, flood, SCALE_FULL)
    stash(benchmark,
          hosts=sharded["hosts"],
          p50_sharded=sharded["p50_s"], p99_sharded=sharded["p99_s"],
          p50_flood=flood["p50_s"], p99_flood=flood["p99_s"],
          speedup_p99=flood["p99_s"] / sharded["p99_s"],
          convergence_s=sharded["convergence_s"],
          convergence_rounds=sharded["convergence_rounds"],
          churn_killed=sharded["churn_killed"],
          partition_s=sharded["partition_s"],
          messages_sharded=sharded["messages"],
          messages_flood=flood["messages"])


def selftest() -> int:
    sharded, flood = _measure(SCALE_SMALL)
    _check(sharded, flood, SCALE_SMALL)
    print("bench_federation selftest ok: "
          f"{sharded['hosts']} hosts, p99 {sharded['p99_s']:.3f}s "
          f"(sharded) vs {flood['p99_s']:.3f}s (flood), churn "
          f"converged in {sharded['convergence_rounds']:.0f} gossip "
          "rounds")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="federated vs flat registry scaling benchmark")
    parser.add_argument("--selftest", action="store_true",
                        help="run the assertion-only gate (no tables)")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    parser.error("run via pytest for the full report, or pass --selftest")

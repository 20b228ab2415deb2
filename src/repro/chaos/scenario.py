"""The standard chaos world: a full system under a seeded simulation.

:func:`build_world` assembles every subsystem the paper's runtime
offers — clustered WAN topology, federated registry, a deployed and
supervised component assembly, a fenced replica group, retry/breaker
clients with a shared retry budget — into one :class:`ChaosWorld` the
campaign engine can torture.  Everything is derived from one seed, so
a campaign over the world is byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.container.replication import ReplicaGroup, ReplicaManager
from repro.deployment import ApplicationSupervisor, Deployer, RuntimePlanner
from repro.deployment.application import Application, DeploymentError
from repro.orb.exceptions import SystemException, UserException
from repro.orb.retry import BreakerRegistry, RetryBudget, RetryPolicy, \
    invoke_with_retry
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.sim.faults import FaultInjector, WireFaultModel
from repro.sim.topology import SERVER, Topology, clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)

_INCREMENT = COUNTER_IFACE.operations["increment"]

#: The world's shape: clusters of hosts ``c{i}h{j}``.
N_CLUSTERS = 3
CLUSTER_SIZE = 3

#: RetryPolicy the chaos clients drive their calls with: short per-call
#: deadline so a wedged dependency sheds quickly instead of queueing.
CLIENT_POLICY = RetryPolicy(attempts=3, timeout=0.6, backoff=0.3,
                            deadline=2.5, jitter=True)


def _assembly() -> AssemblyDescriptor:
    return AssemblyDescriptor(
        name="chaos-app",
        instances=[AssemblyInstance(f"i{k}", "Counter") for k in range(4)],
        connections=[AssemblyConnection("i0", "peer", "i1", "value"),
                     AssemblyConnection("i2", "peer", "i3", "value")])


@dataclass
class ChaosWorld:
    """Everything a campaign may poke at (and must leave consistent)."""

    seed: int
    rig: SimRig
    federation: FederatedRegistry
    deployer: Deployer
    app: Application
    supervisor: ApplicationSupervisor
    manager: ReplicaManager
    group: ReplicaGroup
    injector: FaultInjector
    wire: WireFaultModel
    coordinator: str
    repo_id: str
    #: hosts the campaign must never crash or disconnect (the
    #: deployment coordinator / supervisor seat).
    protected: frozenset
    #: WAN backbone links between cluster heads, flap targets.
    wan_links: list = field(default_factory=list)
    client_hosts: list = field(default_factory=list)
    client_procs: list = field(default_factory=list)
    budgets: dict = field(default_factory=dict)
    breakers: dict = field(default_factory=dict)
    client_stop: bool = False
    client_ok: int = 0
    client_errors: int = 0

    # -- conveniences used by actions and invariants ------------------------
    @property
    def topology(self) -> Topology:
        return self.rig.topology

    def alive_hosts(self) -> list:
        return [h for h in self.topology.host_ids()
                if self.topology.host(h).alive]

    def cluster_hosts(self, index: int) -> list:
        return [f"c{index}h{j}" for j in range(CLUSTER_SIZE)]

    def stop_clients(self) -> None:
        self.client_stop = True


def _client_loop(world: ChaosWorld, host: str):
    """One chaos client: random reads/increments with retry + breaker.

    Failures are *expected* under chaos — the loop only counts them.
    What must never happen is the loop dying of an unhandled error or
    the breaker/budget wedging shut after the faults heal (both are
    checked by invariant monitors).
    """
    node = world.rig.node(host)
    rng = world.rig.rngs.stream(f"chaos.client.{host}")
    registry = world.breakers[host]
    budget = world.budgets[host]
    names = sorted(world.app.placement)
    while not world.client_stop:
        yield node.env.timeout(float(rng.uniform(0.2, 0.8)))
        if world.client_stop:
            return
        if not node.host.alive:
            continue
        name = names[int(rng.integers(0, len(names)))]
        try:
            ior = world.app.facet_ior(name, "value")
        except DeploymentError:
            world.client_errors += 1      # mid-repair window
            continue
        breaker = registry.breaker_for(ior.host_id)
        try:
            yield from invoke_with_retry(
                node.orb, ior, _INCREMENT, (1,),
                policy=CLIENT_POLICY, breaker=breaker, budget=budget)
            world.client_ok += 1
        except (SystemException, UserException):
            world.client_errors += 1


def build_world(seed: int) -> ChaosWorld:
    """Stand up the standard chaos scenario, warmed up and running.

    Returns once the assembly is deployed, the replica group is
    watched, gossip membership has converged, and the client loops are
    live — the campaign starts from a healthy steady state.
    """
    topo = clustered(N_CLUSTERS, CLUSTER_SIZE, profile=SERVER,
                     backbone="chords")
    # Tight default timeout: calls into a crashed host must expire well
    # inside the campaign's drain window, or quiescence would see their
    # pending replies as wedged when they are merely slow to die.
    rig = SimRig(topo, seed=seed, default_timeout=5.0)
    rig.observe()
    rig.network.wire_faults = WireFaultModel(rig.rngs, rig.metrics)

    coordinator = "c0h0"
    node = rig.node(coordinator)
    package = counter_package(cpu_units=5.0)
    node.install_package(package)
    repo_id = COUNTER_IFACE.repo_id

    # Federated registry with tight timers so short campaigns exercise
    # full publish/gossip/expiry cycles.
    fed = FederatedRegistry(rig.nodes, FederationConfig(
        owners=3, vnodes=16, replication=2,
        update_interval=1.0, gossip_interval=0.5, fanout=2,
        query_timeout=0.5, seed_peer_count=2))
    fed.deploy()

    dep = Deployer(rig.nodes, RuntimePlanner(),
                   coordinator_host=coordinator)
    app = rig.run(until=dep.deploy(_assembly()))

    manager = ReplicaManager(node)
    replica_hosts = [f"c{i}h1" for i in range(N_CLUSTERS)]
    group = rig.run(until=manager.create_group("Counter", replica_hosts))

    # Let reporters publish and gossip converge before the supervisor
    # starts reading liveness out of the federation: at t=0 the
    # membership tables are empty and everything would look dead.
    rig.run(until=rig.env.now + fed.settle_time())

    sup = ApplicationSupervisor(dep, interval=1.0, registry=fed,
                                backoff_base=1.0, backoff_cap=4.0)
    sup.watch_group(group, manager)

    injector = FaultInjector(rig.env, topo)
    heads = {f"c{i}h0" for i in range(N_CLUSTERS)}
    wan_links = [link for link in topo.links()
                 if link.a in heads and link.b in heads]

    world = ChaosWorld(
        seed=seed, rig=rig, federation=fed, deployer=dep, app=app,
        supervisor=sup, manager=manager, group=group, injector=injector,
        wire=rig.network.wire_faults, coordinator=coordinator,
        repo_id=repo_id, protected=frozenset({coordinator}),
        wan_links=wan_links)

    # One client per cluster, on the last host of each cluster.
    world.client_hosts = [f"c{i}h{CLUSTER_SIZE - 1}"
                          for i in range(N_CLUSTERS)]
    for host in world.client_hosts:
        client = rig.node(host)
        world.budgets[host] = RetryBudget(
            rig.env, rig.metrics, ratio=0.2, refill_rate=0.2,
            max_tokens=12.0, initial=6.0)
        world.breakers[host] = BreakerRegistry(
            client.orb, retry_budget=world.budgets[host],
            failure_threshold=4, reset_timeout=5.0)
        world.client_procs.append(
            rig.env.process(_client_loop(world, host)))
    return world

"""registry_churn — federated registry resolves through churn.

32 x 8 = 256-host clustered WAN (chords backbone), ``FederatedRegistry``
with 16 owners and replication 2, 16 benchmark-owned service packages
with distinct repo-ids (real instantiable facets, one executor entry
per package), each installed on two hosts in different clusters.  Open
loop in simulated time: seeded random callers ``resolve(repo_id)`` at
seeded due times, 12 per sim-second, each timed from its due time.  At
one third of the window the primary owners of two repo-ids are killed
and ``remove_owner``-ed; at one half one surviving owner's gateway
loses its WAN links for 17 sim-s and heals.

An op is one resolve *as a client would make it*: a raise is retried
after a second until it succeeds, so churn shows as latency from the
due time and in ``driver.error_rate`` (failed attempts over attempts),
not as lost ops; only an op still unanswered at the drain deadline
counts as failed.

Chosen because ring/record/gossip/resolver code, the bus as gossip
transport, 256 hosts' timers and multi-hop routing dominate and
CSCW/``any``/obs are absent.

Shape note: the issue sketched 16 x 16 hosts with one provider per
service.  There one cluster is a sixteenth of the callers and a
service dies with its cluster, so the 17 s partition puts ~1 % of the
ops into a 20-70 s tail — exactly on the p99 rank, which then flips
between 0.25 s and 30 s from seed to seed.  32 x 8 with two providers
keeps the same population, owners and faults but holds the fault tail
near 0.3 % of ops, so p99 measures the dense population and the tail
is read from ``failover`` / ``flood_fallback`` / ``driver.error_rate``.
"""

from __future__ import annotations

from repro.components.executor import ComponentExecutor
from repro.idl import compile_idl
from repro.orb.core import Servant
from repro.orb.exceptions import SystemException, UserException
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.shard import SHARD_IFACE
from repro.sim.rng import derived_stream
from repro.sim.topology import clustered
from repro.testing import SimRig
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

from spine.measure import N_CHUNKS
from spine.workloads import Workload

CLUSTERS = 32
CLUSTER_SIZE = 8
OWNERS = 16
SERVICES = 16
REPLICATION = 2
UPDATE_INTERVAL = 5.0
GOSSIP_INTERVAL = 2.0
RESOLVES_PER_SIM_S = 12.0
#: longer than the failure-detection timeout (3 x update interval), so
#: the fleet genuinely marks the cluster dead before it heals.
BLACKOUT = 3.0 * UPDATE_INTERVAL + GOSSIP_INTERVAL
RETRY_BACKOFF = 1.0
DRAIN = 150.0

_IDL = ('#pragma prefix "corbalc"\nmodule Spine {\n'
        + "".join(f"  interface Svc{i} {{ long ping(); }};\n"
                  for i in range(SERVICES))
        + "};\n")
_MODULE = compile_idl(_IDL).Spine
IFACES = [getattr(_MODULE, f"Svc{i}") for i in range(SERVICES)]
REPO_IDS = [iface.repo_id for iface in IFACES]


def _executor_class(index: int):
    iface = IFACES[index]

    class Facet(Servant):
        _interface = iface

        def ping(self) -> int:
            return index

    class Executor(ComponentExecutor):
        def create_facet(self, port_name: str) -> Servant:
            return Facet()

    return Executor


EXECUTORS = [_executor_class(i) for i in range(SERVICES)]


def service_package(index: int) -> ComponentPackage:
    """An installable provider of the ``index``-th service interface."""
    entry = f"spine.svc{index}"
    GLOBAL_BINARIES.register(entry, EXECUTORS[index])
    name = f"SpineSvc{index}"
    soft = SoftwareDescriptor(
        name=name, version=Version.parse("1.0.0"), vendor="spine",
        abstract="Benchmark service provider.",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/svc")])
    comp = ComponentTypeDescriptor(
        name=name, provides=[PortDecl("svc", IFACES[index].repo_id)],
        qos=QoSSpec(cpu_units=1.0, memory_mb=2.0))
    builder = PackageBuilder(soft, comp)
    builder.add_idl("spine", _IDL)
    builder.add_binary("bin/any/svc", synthetic_payload(500, seed=18))
    return ComponentPackage(builder.build())


def provider_hosts(index: int) -> list:
    """Two providers per service, half the backbone apart, on slot h1
    (h0 = WAN gateway, h2 = shard owner)."""
    return [f"c{index}h1", f"c{index + CLUSTERS // 2}h1"]


def owner_hosts() -> list:
    """One owner on the h2 slot of every other cluster: killing one
    takes down a shard, not a cluster's connectivity."""
    return [f"c{2 * i}h2" for i in range(OWNERS)]


def make_schedule(rng, callers: list, count: int) -> list:
    """``(due offset, caller, repo-id index)`` sorted by due time over
    ``count / RESOLVES_PER_SIM_S`` sim-seconds.

    Every caller resolves at its own steady rate from a seeded phase
    (independent nodes, hence an open loop) and the calls are dealt
    evenly over the callers in a seeded order.  Drawing callers and due
    times independently instead would let the number of calls caught
    inside the partitioned cluster during the blackout swing between 2
    and 11 from seed to seed; each of those ends in a ~500-message
    flood that delays everyone else, so the tail percentiles and the
    wire counts would measure that draw, not the registry.
    """
    window = count / RESOLVES_PER_SIM_S
    order = rng.permutation(len(callers))
    base, extra = divmod(count, len(callers))
    schedule = []
    for rank, index in enumerate(order):
        calls = base + (1 if rank < extra else 0)
        if calls == 0:
            break
        period = window / calls
        phase = float(rng.uniform(0.0, 1.0))
        repos = rng.integers(0, SERVICES, calls)
        for i in range(calls):
            schedule.append(((phase + i) * period, callers[int(index)],
                             int(repos[i])))
    schedule.sort()
    return schedule


class RegistryChurn(Workload):
    name = "registry_churn"
    rate = 420.0
    marshal_once = ("gossip",)     # ShardAgent rounds ride a FanoutForwarder

    def setup(self) -> None:
        rig = SimRig(self.topology(), seed=self.seed)
        self.rig = rig
        self.attach(rig.env, rig.network)
        self.providers = {}
        for i in range(SERVICES):
            package = service_package(i)
            hosts = provider_hosts(i)
            for host in hosts:
                rig.node(host).install_package(package)
            self.providers[REPO_IDS[i]] = set(hosts)
        self.fed = FederatedRegistry(rig.nodes, FederationConfig(
            owners=OWNERS, replication=REPLICATION,
            update_interval=UPDATE_INTERVAL,
            gossip_interval=GOSSIP_INTERVAL))
        owners = owner_hosts()
        self.fed.deploy(owner_hosts=owners)
        rig.run(until=self.fed.settle_time())
        # Callers are ordinary members: never a gateway, never an owner
        # (an owner may be killed mid-run; a dead caller cannot call).
        reserved = set(owners)
        callers = [h for h in rig.topology.host_ids()
                   if not h.endswith("h0") and h not in reserved]
        rng = derived_stream("spine.registry_churn", self.seed)
        self.warm_schedule = make_schedule(rng, callers, self.warm_ops)
        self.schedule = make_schedule(rng, callers, self.ops)
        self.window_sim_s = self.ops / RESOLVES_PER_SIM_S
        self.answers: list = []        # (repo index, IOR)
        self.done = 0
        self.recording = False
        self.converged_by = None

    @staticmethod
    def topology():
        return clustered(CLUSTERS, CLUSTER_SIZE, backbone="chords")

    @staticmethod
    def operations() -> dict:
        return dict(SHARD_IFACE.operations)

    # -- simulation-side processes -------------------------------------------
    def _resolve(self, due: float, host: str, repo: int, deadline: float):
        env = self.env
        tracer = self.tracer
        resolver = self.rig.node(host).resolver
        while env.now < deadline:
            try:
                if tracer.on:
                    with tracer.span("driver|resolver.resolve"):
                        pending = resolver.resolve(REPO_IDS[repo])
                else:
                    pending = resolver.resolve(REPO_IDS[repo])
                ior = yield pending
            except (SystemException, UserException):
                self.retried += 1
                yield env.timeout(RETRY_BACKOFF)
                continue
            self.answers.append((repo, ior))
            if self.recording:
                self.latencies.append(env.now - due)
            self.done += 1
            return

    def _generator(self, schedule: list, start: float, deadline: float):
        env = self.env
        for due, host, repo in schedule:
            wait = start + due - env.now
            if wait > 0:
                yield env.timeout(wait)
            env.process(self._resolve(start + due, host, repo, deadline))

    def _faults(self, start: float):
        """Owner kills at a third, a 17 s WAN partition at half."""
        env = self.env
        topo = self.rig.topology
        fed = self.fed
        window = self.window_sim_s
        yield env.timeout(start + window / 3.0 - env.now)
        victims = []
        for repo_id in REPO_IDS:
            primary = fed.ring.owners(repo_id, 1)[0]
            if primary not in victims:
                victims.append(primary)
            if len(victims) == 2:
                break
        for victim in victims:
            topo.set_host_state(victim, alive=False)
            fed.remove_owner(victim)
        yield env.timeout(start + window / 2.0 - env.now)
        # Isolate the surviving owner that is primary for the fewest
        # service repo-ids (none, usually): were it primary for a
        # sixteenth of them, every lookup of those would wait out a 2 s
        # query timeout for 17 s, ~0.5 % of the ops, and the p99 rank
        # would sit on the edge of that step.  Its cluster's callers
        # still walk the fail-over, ring and flood fall-backs.
        primaries = [fed.ring.owners(r, 1)[0] for r in REPO_IDS]
        isolated = min(sorted(fed.agents), key=primaries.count)
        gateway = isolated.split("h")[0] + "h0"
        wan = [link for link in topo.links()
               if link.link_class.name == "wan"
               and gateway in (link.a, link.b)]
        for link in wan:
            topo.set_link_state(link.a, link.b, up=False)
        # Short (selftest-scale) windows shrink the blackout with them.
        yield env.timeout(min(BLACKOUT, window / 4.0))
        for link in wan:
            topo.set_link_state(link.a, link.b, up=True)

    def _converged(self) -> bool:
        return (self.fed.owner_views_agree()
                and all(self.fed.records_converged(r) for r in REPO_IDS))

    def _run_until(self, when: float) -> None:
        tracer = self.tracer
        if tracer.on:
            with tracer.span("driver|env.run"):
                self.env.run(until=when)
        else:
            self.env.run(until=when)

    # -- driving -----------------------------------------------------------
    def warmup(self) -> None:
        env = self.env
        start = env.now
        span = self.warm_ops / RESOLVES_PER_SIM_S
        env.process(self._generator(self.warm_schedule, start,
                                    start + span + DRAIN))
        env.run(until=start + span)
        while self.done < self.warm_ops and env.now < start + span + DRAIN:
            env.run(until=env.now + 1.0)
        self.retried = 0

    def run(self, window) -> None:
        env = self.env
        self.recording = True
        self.attempted = self.ops
        done_before = self.done
        window.begin()
        start = env.now
        deadline = start + self.window_sim_s + DRAIN
        env.process(self._generator(self.schedule, start, deadline))
        env.process(self._faults(start))
        slice_s = self.window_sim_s / N_CHUNKS
        for c in range(N_CHUNKS):
            self._run_until(start + (c + 1) * slice_s)
            window.chunk_done()
        # Drain: every resolve answered and the owners' views back in
        # agreement, or the deadline.
        while env.now < deadline:
            if self.done - done_before >= self.ops and self._converged():
                self.converged_by = env.now - start
                break
            self._run_until(min(env.now + GOSSIP_INTERVAL, deadline))
        window.finish()
        self.recording = False
        self.failed = self.ops - (self.done - done_before)

    def verify(self) -> list:
        problems = []
        wrong = 0
        for repo, ior in self.answers:
            repo_id = REPO_IDS[repo]
            if ior.repo_id != repo_id \
                    or ior.host_id not in self.providers[repo_id]:
                wrong += 1
        if wrong:
            problems.append(f"{wrong} resolves returned an IOR of the "
                            "wrong interface or of an unregistered host")
        if self.converged_by is None:
            problems.append("owners' views did not re-converge before "
                            "the drain deadline")
        return problems

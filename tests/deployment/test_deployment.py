"""Tests for planners and the deployer."""

import numpy as np
import pytest

from repro.deployment.application import DeploymentError, Deployer
from repro.deployment.planner import (
    SEARCH_BUDGET,
    PlacementError,
    RandomPlanner,
    RoundRobinPlanner,
    RuntimePlanner,
    StaticPlanner,
    load_imbalance,
)
from repro.node.resources import ResourceSnapshot
from repro.sim.topology import PDA, SERVER, star
from repro.testing import (
    COUNTER_IFACE,
    POKE_KIND,
    SimRig,
    counter_package,
)
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
    QoSSpec,
)


def snap(host, cpu_cap=400.0, cpu_used=0.0, mem_cap=512.0, mem_used=0.0,
         tiny=False):
    return ResourceSnapshot(
        host=host, os="linux", arch="x86", orb="corba-lc", is_tiny=tiny,
        cpu_capacity=cpu_cap, cpu_committed=cpu_used,
        memory_capacity=mem_cap, memory_committed=mem_used,
        instances=0.0, timestamp=0.0)


def assembly(n, component="Counter", connections=()):
    return AssemblyDescriptor(
        name="app",
        instances=[AssemblyInstance(f"i{k}", component) for k in range(n)],
        connections=list(connections))


QOS = {"Counter": QoSSpec(cpu_units=100.0, memory_mb=32.0)}


class TestRuntimePlanner:
    def test_balances_by_current_load(self):
        views = [snap("busy", cpu_used=300.0), snap("idle")]
        plan = RuntimePlanner().plan(assembly(2), views, QOS)
        # both go to the idle host (100+100 < 400) before busy gets any
        assert plan["i0"] == "idle"
        assert plan["i1"] == "idle"

    def test_spreads_when_loads_equal(self):
        views = [snap("a"), snap("b")]
        plan = RuntimePlanner().plan(assembly(4), views, QOS)
        assert sorted(plan.values()).count("a") == 2

    def test_avoids_tiny_hosts(self):
        views = [snap("pda", tiny=True, cpu_cap=20000.0),
                 snap("desk")]
        plan = RuntimePlanner().plan(assembly(3), views, QOS)
        assert set(plan.values()) == {"desk"}

    def test_tiny_used_as_last_resort(self):
        views = [snap("pda", tiny=True), snap("desk", cpu_cap=150.0)]
        plan = RuntimePlanner().plan(assembly(2), views, QOS)
        assert sorted(plan.values()) == ["desk", "pda"]

    def test_placement_error_when_nothing_fits(self):
        views = [snap("a", cpu_cap=50.0)]
        with pytest.raises(PlacementError):
            RuntimePlanner().plan(assembly(1), views, QOS)

    def test_memory_tight_world_is_placed(self):
        # Greedy puts the big-CPU instance on b (more CPU left there),
        # and then the memory-heavy one fits nowhere; the search moves
        # the first one to a.
        views = [snap("a", cpu_cap=400.0, mem_cap=64.0),
                 snap("b", cpu_cap=1000.0, mem_cap=100.0)]
        qos = {"Y": QoSSpec(cpu_units=300.0, memory_mb=50.0),
               "X": QoSSpec(cpu_units=100.0, memory_mb=80.0)}
        asm = AssemblyDescriptor(name="app", instances=[
            AssemblyInstance("x", "X"), AssemblyInstance("y", "Y")])
        assert RuntimePlanner().plan(asm, views, qos) == {"y": "a",
                                                           "x": "b"}

    def test_huge_infeasible_assembly_is_refused(self):
        # An assembly comes from outside the program: a search deeper
        # than the interpreter's recursion limit must still end cleanly.
        views = [snap(h, cpu_cap=75_000.0, mem_cap=1e6) for h in "ab"]
        with pytest.raises(PlacementError):
            RuntimePlanner().plan(assembly(1_501), views, QOS)

    @pytest.mark.parametrize("hosts", [16, 256])
    def test_refusal_examines_as_many_hosts_at_any_size(self, hosts):
        # Identical hosts that take one instance each, and one instance
        # more.  A host is examined when its free CPU is tested against
        # the demand, ``free >= need``, which lands in ``Need.__le__``.
        looks = []

        class Need(float):
            def __le__(self, free):
                looks.append(free)
                return float.__le__(self, free)

        views = [snap(f"h{k}", cpu_cap=100.0) for k in range(hosts)]
        qos = {"Counter": QoSSpec(cpu_units=Need(100.0), memory_mb=1.0)}
        with pytest.raises(PlacementError):
            RuntimePlanner().plan(assembly(hosts + 1), views, qos)
        # The greedy pass looks at every host for each of the hosts + 1
        # instances; what follows its dead end is the budget's.
        after = len(looks) - (hosts + 1) * hosts
        assert SEARCH_BUDGET - hosts < after <= SEARCH_BUDGET


class TestStaticPlanner:
    def test_ignores_current_load(self):
        loaded = [snap("a", cpu_used=390.0), snap("b")]
        fresh = [snap("a"), snap("b")]
        plan1 = StaticPlanner().plan(assembly(2), loaded, QOS)
        plan2 = StaticPlanner().plan(assembly(2), fresh, QOS)
        assert plan1 == plan2  # blind to load: same fixed mapping

    def test_deterministic(self):
        views = [snap("a"), snap("b"), snap("c")]
        p1 = StaticPlanner().plan(assembly(5), views, QOS)
        p2 = StaticPlanner().plan(assembly(5), views, QOS)
        assert p1 == p2


class TestOtherPlanners:
    def test_random_planner_deterministic_per_seed(self):
        views = [snap("a"), snap("b"), snap("c")]
        p1 = RandomPlanner(np.random.default_rng(5)).plan(
            assembly(6), views, QOS)
        p2 = RandomPlanner(np.random.default_rng(5)).plan(
            assembly(6), views, QOS)
        assert p1 == p2

    def test_random_planner_from_registry_deterministic(self):
        from repro.sim.rng import RngRegistry
        views = [snap("a"), snap("b"), snap("c")]
        p1 = RandomPlanner(RngRegistry(9)).plan(assembly(6), views, QOS)
        p2 = RandomPlanner(RngRegistry(9)).plan(assembly(6), views, QOS)
        assert p1 == p2

    def test_random_planner_registry_uses_named_stream(self):
        from repro.sim.rng import RngRegistry, derived_stream
        views = [snap("a"), snap("b"), snap("c")]
        p1 = RandomPlanner(RngRegistry(9)).plan(assembly(6), views, QOS)
        p2 = RandomPlanner(derived_stream(
            RandomPlanner.STREAM, 9)).plan(assembly(6), views, QOS)
        assert p1 == p2  # registry path == explicit stream derivation

    def test_round_robin_cycles(self):
        views = [snap("a"), snap("b")]
        plan = RoundRobinPlanner().plan(assembly(4), views, QOS)
        assert plan == {"i0": "a", "i1": "b", "i2": "a", "i3": "b"}

    def test_load_imbalance_metric(self):
        views = [snap("a", cpu_used=400.0), snap("b", cpu_used=0.0)]
        assert load_imbalance(views) == 1.0
        assert load_imbalance([]) == 0.0


class TestDeployer:
    @pytest.fixture
    def rig(self):
        r = SimRig(star(3, hub_profile=SERVER))
        r.node("hub").install_package(counter_package(cpu_units=50.0))
        return r

    def test_deploy_creates_and_wires(self, rig):
        asm = assembly(3, connections=[
            AssemblyConnection("i0", "peer", "i1", "value")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(asm))
        assert set(app.placement) == {"i0", "i1", "i2"}
        # connection i0.peer -> i1.value is live
        host0 = app.placement["i0"]
        inst0 = rig.node(host0).container.find_instance(
            app.instance_id("i0"))
        assert inst0.ports.receptacle("peer").connected
        stub = inst0.executor.context.connection("peer")
        assert rig.node(host0).orb.sync(stub.increment(2)) == 2

    def test_packages_shipped_to_bare_hosts(self, rig):
        asm = assembly(4)
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(asm))
        used_hosts = set(app.placement.values())
        for host in used_hosts:
            assert rig.node(host).repository.is_installed("Counter")

    def test_event_connection_kind_mismatch_rejected(self, rig):
        asm = AssemblyDescriptor(
            name="bad",
            instances=[AssemblyInstance("a", "Counter"),
                       AssemblyInstance("b", "Counter")],
            # a.pokes consumes demo.poke but b.ticks emits demo.tick
            connections=[AssemblyConnection("a", "pokes", "b", "ticks",
                                            kind="event")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        with pytest.raises(DeploymentError, match="kind mismatch"):
            rig.run(until=dep.deploy(asm))

    def test_failed_fetch_gives_way_to_the_next_holder(self, rig):
        # The deployer does not know which hosts are up: a source that
        # holds the package but cannot ship it is passed over, and a
        # supervisor's view skips the holders it calls down.
        from repro.orb.exceptions import TRANSIENT
        rig.node("h0").install_package(counter_package(cpu_units=50.0))
        shipped = []
        for host in ("hub", "h0", "h1"):
            acceptor = rig.node(host).orb.adapter("node").servant_for(
                "acceptor")

            def fetch(*args, _host=host, _real=acceptor.fetch):
                if _host == "hub":
                    raise TRANSIENT("hub cannot ship")
                shipped.append(_host)
                return _real(*args)
            acceptor.fetch = fetch
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        rig.run(until=rig.env.process(dep._ensure_installed("Counter",
                                                            "h1")))
        assert shipped == ["h0"]
        rig.run(until=rig.env.process(dep._ensure_installed(
            "Counter", "h2", alive=lambda host: host != "h0")))
        assert shipped == ["h0", "h1"]
        assert rig.node("h2").repository.is_installed("Counter")

    def test_component_installed_nowhere_rejected(self, rig):
        asm = AssemblyDescriptor(
            name="bad", instances=[AssemblyInstance("x", "Ghost")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        with pytest.raises(DeploymentError):
            rig.run(until=dep.deploy(asm))

    def test_teardown_destroys_everything(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(assembly(4)))
        rig.run(until=app.teardown())
        assert app.torn_down
        assert all(len(n.container) == 0 for n in rig.nodes.values())
        assert app not in dep.applications

    def test_migrate_rewires_interface_connection(self, rig):
        asm = assembly(2, connections=[
            AssemblyConnection("i0", "peer", "i1", "value")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(asm))
        old_host = app.placement["i1"]
        target = next(h for h in rig.nodes
                      if h not in (old_host, app.placement["i0"]))
        rig.run(until=app.migrate("i1", target))
        assert app.placement["i1"] == target
        inst0 = rig.node(app.placement["i0"]).container.find_instance(
            app.instance_id("i0"))
        assert inst0.ports.receptacle("peer").peer.host_id == target

    def test_migrate_whose_rewire_fails_raises(self, rig):
        # The move itself succeeded; a user still aimed at the old
        # facet must not be reported as wired.
        from repro.container.agent import AgentError
        asm = assembly(2, connections=[
            AssemblyConnection("i0", "peer", "i1", "value")])
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(asm))
        old_host = app.placement["i1"]
        target = next(h for h in rig.nodes
                      if h not in (old_host, app.placement["i0"]))
        agent = rig.node(app.placement["i0"]).orb.adapter(
            "node").servant_for("container")

        def connect(*args):
            raise AgentError("refused")
        agent.connect = connect
        with pytest.raises(DeploymentError, match=r"i0\.peer"):
            rig.run(until=app.migrate("i1", target))
        assert app.placement["i1"] == target

    def test_facet_ior_lookup(self, rig):
        dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
        app = rig.run(until=dep.deploy(assembly(1)))
        ior = app.facet_ior("i0", "value")
        assert ior.repo_id == COUNTER_IFACE.repo_id
        with pytest.raises(DeploymentError):
            app.facet_ior("i0", "ghost-port")

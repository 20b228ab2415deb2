"""End-to-end integration scenarios spanning every subsystem."""

import math

import pytest

from repro.container.migration import MigrationEngine
from repro.deployment import Deployer, RuntimePlanner
from repro.grid import (
    IdleMonitor,
    MonteCarloPiExecutor,
    VolunteerAgent,
    VolunteerMaster,
    montecarlo_package,
)
from repro.orb.exceptions import SystemException
from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
)
from repro.sim.faults import ChurnModel, FaultInjector
from repro.sim.topology import clustered
from repro.testing import (
    COUNTER_IFACE,
    SimRig,
    counter_package,
    star_rig,
)
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)


class TestFullStack:
    """The paper's whole pipeline in one scenario: install at run time,
    resolve network-wide, deploy an assembly, migrate under load."""

    def test_lifecycle_across_clusters(self):
        rig = SimRig(clustered(2, 4), seed=20)
        cfg = RegistryConfig(update_interval=2.0, replicas=2)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))

        # run-time install in cluster 1
        publisher = rig.node("c1h3")
        publisher.install_package(counter_package())
        rig.run(until=dr.settle_time())

        # network-wide resolution from cluster 0
        requester = rig.node("c0h2")
        ior = rig.run(until=requester.request_component(
            COUNTER_IFACE.repo_id))
        stub = requester.orb.stub(ior, COUNTER_IFACE)
        assert requester.orb.sync(stub.increment(5)) == 5

        # deploy an assembly using the same component
        deployer = Deployer(rig.nodes, RuntimePlanner(),
                            coordinator_host="c0h0")
        assembly = AssemblyDescriptor(
            name="pair",
            instances=[AssemblyInstance("a", "Counter"),
                       AssemblyInstance("b", "Counter")],
            connections=[AssemblyConnection("a", "peer", "b", "value")])
        app = rig.run(until=deployer.deploy(assembly))

        # migrate 'b' somewhere else and keep using the connection
        current = app.placement["b"]
        target = next(h for h in rig.topology.host_ids()
                      if h != current and h != app.placement["a"])
        rig.run(until=app.migrate("b", target))
        a_inst = rig.node(app.placement["a"]).container.find_instance(
            app.instance_id("b" if False else "a"))
        peer_stub = a_inst.executor.context.connection("peer")
        node_a = rig.node(app.placement["a"])
        assert node_a.orb.sync(peer_stub.increment(1)) >= 1

        rig.run(until=app.teardown())

    def test_registry_survives_churn_while_serving(self):
        rig = SimRig(clustered(2, 5), seed=21)
        cfg = RegistryConfig(update_interval=2.0, replicas=2,
                             query_timeout=1.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        provider_host = "c1h4"
        rig.node(provider_host).install_package(counter_package())
        rig.run(until=dr.settle_time())

        injector = FaultInjector(rig.env, rig.topology)
        # churn everyone except gateways, MRM hosts and the provider
        protected = {"c0h0", "c1h0", provider_host}
        protected.update(h for g in dr.groups.values()
                         for h in g.mrm_hosts)
        if dr.root is not None:
            # Root MRMs no longer share the first group's hosts; they
            # are registry infrastructure and stay out of the churn.
            protected.update(dr.root.mrm_hosts)
        ChurnModel(rig.env, injector, rig.rngs,
                   rig.topology.host_ids(), mean_uptime=20.0,
                   mean_downtime=5.0, protected=protected)

        successes, failures = 0, 0
        for _ in range(20):
            requester = rig.node("c0h1")
            try:
                rig.run(until=requester.request_component(
                    COUNTER_IFACE.repo_id))
                successes += 1
            except SystemException:
                failures += 1
            rig.run(until=rig.env.now + 3.0)
        # the registry keeps answering through the churn
        assert successes >= 18

    def test_volunteer_grid_with_simultaneous_whiteboard(self):
        """Two very different applications share one network."""
        from repro.cscw import (
            SURFACE_IFACE, display_package, whiteboard_package)
        rig = star_rig(6, seed=22)
        hub = rig.node("hub")
        hub.install_package(montecarlo_package())
        hub.install_package(whiteboard_package())
        rig.node("h5").install_package(display_package())

        # grid job in the background
        master = VolunteerMaster(hub, "MonteCarloPi", shard_timeout=30.0)
        for i in range(4):
            node = rig.node(f"h{i}")
            monitor = IdleMonitor(node, rig.rngs.stream(f"idle.{i}"),
                                  mean_busy=1e9, mean_idle=1e9)
            VolunteerAgent(node, monitor, master.ior)
        done = master.submit(
            [{"samples": 500_000, "seed": i} for i in range(8)])

        # interactive whiteboard in the foreground
        board = hub.container.create_instance("Whiteboard")
        surface = rig.node("h5").orb.stub(
            board.ports.facet("surface").ior, SURFACE_IFACE)
        for i in range(5):
            rig.node("h5").orb.sync(surface.add_stroke({
                "author": "u", "x0": 0.0, "y0": 0.0,
                "x1": 1.0, "y1": float(i), "color": "red"}))

        partials = rig.run(until=done)
        pi = MonteCarloPiExecutor.merge_values(partials)
        assert abs(pi - math.pi) < 0.02
        assert rig.node("h5").orb.sync(surface.revision()) == 5


class TestDeterminism:
    """Same seed => identical behaviour, across the whole stack."""

    def scenario(self, seed):
        rig = SimRig(clustered(2, 3), seed=seed)
        dr = DistributedRegistry(rig.nodes,
                                 RegistryConfig(update_interval=2.0))
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.node("c1h2").install_package(counter_package())
        rig.run(until=dr.settle_time())
        ior = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        rig.run(until=30.0)
        return (str(ior), rig.env.now, rig.metrics.get("net.bytes"),
                rig.metrics.get("net.messages"),
                rig.metrics.get("registry.soft.msgs"))

    def test_identical_runs(self):
        assert self.scenario(99) == self.scenario(99)

    def test_different_seeds_still_converge(self):
        a = self.scenario(1)
        b = self.scenario(2)
        assert a[0] == b[0]  # same resolution outcome

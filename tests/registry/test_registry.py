"""Tests for the Distributed Registry: MRMs, reporters, queries, failover."""

import pytest

from repro.orb.exceptions import TRANSIENT
from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    groups_by_cluster,
    groups_by_size,
)
from repro.registry.mrm import MrmAgent, MrmConfig
from repro.registry.prediction import EwmaSlope, PredictiveReporter
from repro.registry.queries import FloodResolver, select_candidate
from repro.registry.softstate import SoftStateReporter
from repro.registry.strongstate import StrongStateReporter
from repro.registry.view import Aggregate, Candidate, NodeView
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package, star_rig
from repro.util.errors import ConfigurationError
from repro.xmlmeta.descriptors import QoSSpec


class TestNodeView:
    def test_collect_and_roundtrip(self):
        rig = star_rig(1)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        hub.container.create_instance("Counter")
        view = NodeView.collect(hub)
        assert view.snapshot.host == "hub"
        assert view.components[0].name == "Counter"
        assert len(view.running) == 1
        assert NodeView.from_value(view.to_value()) == view
        assert view.provides(COUNTER_IFACE.repo_id)
        assert not view.provides("IDL:none:1.0")

    def test_candidates_from_view(self):
        rig = star_rig(1)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        view = NodeView.collect(hub)
        (cand,) = Candidate.from_view(view, COUNTER_IFACE.repo_id, "g0")
        assert cand.host == "hub"
        assert not cand.is_running
        assert cand.group == "g0"
        hub.container.create_instance("Counter")
        (cand2,) = Candidate.from_view(NodeView.collect(hub),
                                       COUNTER_IFACE.repo_id)
        assert cand2.is_running


class TestSelectCandidate:
    def c(self, **kw):
        base = dict(host="h", component="C", version="1.0.0",
                    running_ior="", mobility="mobile", free_cpu=100.0,
                    free_memory=64.0, is_tiny=False)
        base.update(kw)
        return Candidate(**base)

    def test_running_beats_installed(self):
        a = self.c(host="a", running_ior="IOR:x@a/p/k", free_cpu=1.0)
        b = self.c(host="b", free_cpu=1000.0)
        assert select_candidate([a, b], prefer_host="z") is a

    def test_local_host_preferred(self):
        a = self.c(host="me", free_cpu=10.0)
        b = self.c(host="other", free_cpu=1000.0)
        assert select_candidate([a, b], prefer_host="me") is a

    def test_tiny_avoided(self):
        a = self.c(host="pda", is_tiny=True, free_cpu=1000.0)
        b = self.c(host="desk", free_cpu=5.0)
        assert select_candidate([a, b], prefer_host="z") is b

    def test_free_cpu_tiebreak(self):
        a = self.c(host="a", free_cpu=10.0)
        b = self.c(host="b", free_cpu=20.0)
        assert select_candidate([a, b], prefer_host="z") is b

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            select_candidate([], prefer_host="z")


class TestGroupFormation:
    def test_groups_by_cluster(self):
        hosts = ["c0h0", "c0h1", "c1h0", "c1h1", "lonely"]
        groups = groups_by_cluster(hosts)
        assert groups == {"c0": ["c0h0", "c0h1"],
                          "c1": ["c1h0", "c1h1"],
                          "misc": ["lonely"]}

    def test_groups_by_size(self):
        groups = groups_by_size([f"h{i}" for i in range(5)], 2)
        assert groups == {"g0": ["h0", "h1"], "g1": ["h2", "h3"],
                          "g2": ["h4"]}
        with pytest.raises(ConfigurationError):
            groups_by_size(["a"], 0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RegistryConfig(mode="psychic")
        with pytest.raises(ConfigurationError):
            RegistryConfig(replicas=0)

    def test_predictive_timeout_must_outlast_the_keepalive(self):
        # keep-alive = 2.5 x 5.0 = 12.5 sim-s of legitimate silence
        with pytest.raises(ConfigurationError):
            RegistryConfig(mode="predictive", update_interval=5.0,
                           member_timeout=6.0)
        with pytest.raises(ConfigurationError):
            RegistryConfig(mode="predictive", update_interval=5.0,
                           member_timeout=12.5)
        RegistryConfig(mode="predictive", update_interval=5.0,
                       member_timeout=12.6)
        # the default (3 x interval) and the other modes are unaffected
        RegistryConfig(mode="predictive", update_interval=5.0)
        RegistryConfig(mode="soft", update_interval=5.0,
                       member_timeout=6.0)


class TestSoftState:
    def deploy(self, mode="soft", **cfg_kw):
        rig = SimRig(clustered(2, 3), seed=3)
        rig.node("c1h2").install_package(counter_package())
        cfg = RegistryConfig(update_interval=2.0, mode=mode, **cfg_kw)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        return rig, dr

    def test_members_populate(self):
        rig, dr = self.deploy()
        rig.run(until=dr.settle_time())
        mrm = dr.groups["c0"].agents[0]
        assert sorted(mrm.members) == ["c0h0", "c0h1", "c0h2"]

    def test_member_expires_after_crash(self):
        rig, dr = self.deploy()
        rig.run(until=dr.settle_time())
        rig.topology.set_host_state("c0h2", alive=False)
        rig.run(until=rig.env.now + 4 * 2.0)
        mrm = dr.groups["c0"].agents[0]
        assert "c0h2" not in mrm.members
        assert mrm.expired_members >= 1

    def test_member_rejoins_after_restart(self):
        rig, dr = self.deploy()
        rig.run(until=dr.settle_time())
        rig.topology.set_host_state("c0h2", alive=False)
        rig.run(until=rig.env.now + 8.0)
        rig.topology.set_host_state("c0h2", alive=True)
        rig.run(until=rig.env.now + 4.0)
        assert "c0h2" in dr.groups["c0"].agents[0].members

    def test_root_aggregates_all_groups(self):
        rig, dr = self.deploy()
        rig.run(until=dr.settle_time())
        root = dr.root.agents[0]
        assert sorted(root.children) == ["c0", "c1"]
        agg = root.children["c1"].aggregate
        assert COUNTER_IFACE.repo_id in agg.repo_ids
        assert agg.member_count == 3

    def test_mrm_crash_wipes_and_recovers_soft_state(self):
        rig, dr = self.deploy()
        rig.run(until=dr.settle_time())
        mrm = dr.groups["c0"].agents[0]
        host = mrm.node.host_id
        rig.topology.set_host_state(host, alive=False)
        assert mrm.members == {}
        rig.topology.set_host_state(host, alive=True)
        rig.run(until=rig.env.now + 5.0)
        assert len(mrm.members) == 3  # repopulated from reports

    def test_strong_mode_sends_more(self):
        def bytes_for(mode):
            rig, dr = self.deploy(mode=mode)
            rig.run(until=20.0)
            meter = ("registry.strong" if mode == "strong"
                     else "registry.soft")
            return rig.metrics.get(f"{meter}.bytes")
        assert bytes_for("strong") > 2 * bytes_for("soft")

    def test_strong_mode_crash_with_ack_in_flight_costs_the_update(self):
        """The acknowledged update dies with its host; pre-fix its
        unhandled Interrupt escaped ``env.run`` and ended the run."""
        rig = star_rig(3, seed=3)
        dr = DistributedRegistry(
            rig.nodes, RegistryConfig(update_interval=2.0, mode="strong"))
        dr.deploy({"g0": rig.topology.host_ids()})
        rig.run(until=5.0)
        reporter = dr.reporters["h1"]
        acks = reporter.acks_received
        rig.node("h1").install_package(counter_package())
        rig.topology.set_host_state("h1", alive=False)
        rig.run(until=10.0)             # pre-fix: Interrupt('host crashed')
        assert reporter.acks_received == acks
        sent = reporter.reports_sent
        rig.topology.set_host_state("h1", alive=True)
        rig.run(until=14.0)
        assert reporter.reports_sent > sent     # heartbeats resumed
        assert "h1" in dr.groups["g0"].agents[0].members


class TestHierarchicalQueries:
    def deploy(self):
        rig = SimRig(clustered(3, 3), seed=5)
        rig.node("c2h2").install_package(counter_package())
        cfg = RegistryConfig(update_interval=2.0, replicas=1)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())
        return rig, dr

    def test_same_group_hit_stays_local(self):
        rig, dr = self.deploy()
        before = rig.metrics.get("registry.hier.msgs")
        ior = rig.run(until=rig.node("c2h0").request_component(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c2h2"

    def test_cross_group_query_escalates(self):
        rig, dr = self.deploy()
        ior = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c2h2"
        assert rig.metrics.get("registry.query.msgs") >= 3

    def test_unsatisfiable_query_fails(self):
        rig, dr = self.deploy()
        with pytest.raises(TRANSIENT):
            rig.run(until=rig.node("c0h1").request_component(
                "IDL:none:1.0"))

    def test_qos_filter_respected(self):
        rig, dr = self.deploy()
        with pytest.raises(TRANSIENT):
            rig.run(until=rig.node("c0h1").request_component(
                COUNTER_IFACE.repo_id, qos=QoSSpec(cpu_units=1e9)))

    def test_second_request_reuses_instance(self):
        rig, dr = self.deploy()
        ior1 = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        rig.run(until=rig.env.now + 2 * 2.0 + 1)  # let views refresh
        ior2 = rig.run(until=rig.node("c1h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior1 == ior2


class TestReplicatedMrms:
    def test_query_fails_over_to_replica(self):
        rig = SimRig(clustered(1, 4), seed=7)
        rig.node("c0h3").install_package(counter_package())
        cfg = RegistryConfig(update_interval=2.0, replicas=2,
                             query_timeout=1.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())
        rig.topology.set_host_state("c0h0", alive=False)  # primary MRM
        ior = rig.run(until=rig.node("c0h2").request_component(
            COUNTER_IFACE.repo_id))
        assert ior is not None
        assert rig.metrics.get("resolver.mrm_failover") >= 1

    def test_supervisor_promotes_replacement(self):
        rig = SimRig(clustered(1, 5), seed=8)
        rig.node("c0h4").install_package(counter_package())
        cfg = RegistryConfig(update_interval=2.0, replicas=1,
                             query_timeout=1.0, supervise=True,
                             supervise_interval=3.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())
        old_mrm = dr.groups["c0"].mrm_hosts[0]
        rig.topology.set_host_state(old_mrm, alive=False)
        rig.run(until=rig.env.now + 30.0)
        sup = dr.supervisors[0]
        assert len(sup.promotions) == 1
        new_host = dr.groups["c0"].mrm_hosts[0]
        assert new_host != old_mrm
        # resolution works against the promoted MRM
        rig.run(until=rig.env.now + 5.0)
        ior = rig.run(until=rig.node("c0h2").request_component(
            COUNTER_IFACE.repo_id))
        assert ior is not None

    def test_deposed_mrm_does_not_come_back_as_a_zombie(self):
        """A replaced MRM is retired: when its host returns it must not
        run a second MRM of the group that reports an *empty* aggregate
        to the parent every interval (cross-cluster queries then miss
        the cluster whenever the zombie's report landed last)."""
        rig = SimRig(clustered(2, 4), seed=8)
        rig.node("c1h3").install_package(counter_package())
        cfg = RegistryConfig(update_interval=2.0, replicas=1,
                             query_timeout=1.0, supervise=True,
                             supervise_interval=3.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())
        (deposed,) = dr.groups["c1"].agents
        old_mrm = deposed.node.host_id
        rig.topology.set_host_state(old_mrm, alive=False)
        rig.run(until=rig.env.now + 30.0)
        (promoted,) = dr.groups["c1"].mrm_hosts
        assert promoted != old_mrm
        rig.topology.set_host_state(old_mrm, alive=True)
        # the cluster's gateway is back: let one aggregate through
        rig.run(until=rig.env.now + 2 * cfg.update_interval)
        (root,) = dr.root.agents
        for _ in range(40):                  # 10 update intervals
            rig.run(until=rig.env.now + 0.5)
            assert root.children["c1"].aggregate.mrm_host == promoted
            ior = rig.run(until=rig.node("c0h2").request_component(
                COUNTER_IFACE.repo_id))
            assert ior.host_id == "c1h3"
        assert not any(loop.alive for loop in deposed.loops)
        assert not deposed.members and not deposed.children


class TestPrediction:
    def test_ewma_slope_tracks_linear_drift(self):
        model = EwmaSlope(alpha=0.5)
        for t in range(10):
            model.observe(float(t), 100.0 - 3.0 * t)
        assert model.slope == pytest.approx(-3.0, abs=0.5)

    def test_predictive_sends_fewer_reports_when_stable(self):
        def reports(mode):
            rig = star_rig(4, seed=9)
            cfg = RegistryConfig(update_interval=1.0, mode=mode,
                                 prediction_tolerance=20.0)
            dr = DistributedRegistry(rig.nodes, cfg)
            dr.deploy({"g0": rig.topology.host_ids()})
            rig.run(until=60.0)
            meter = "registry.pred" if mode == "predictive" else "registry.soft"
            return rig.metrics.get(f"{meter}.msgs")
        assert reports("predictive") < reports("soft") / 2

    def test_predictive_reacts_to_change(self):
        rig = star_rig(2, seed=10)
        hub = rig.node("hub")
        hub.install_package(counter_package())
        cfg = RegistryConfig(update_interval=1.0, mode="predictive",
                             prediction_tolerance=20.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy({"g0": rig.topology.host_ids()})
        rig.run(until=20.0)
        sent_before = dr.reporters["hub"].reports_sent
        # a generation change (new instance) must force a report
        hub.container.create_instance("Counter")
        rig.run(until=rig.env.now + 2.5)
        assert dr.reporters["hub"].reports_sent > sent_before

    def test_mrm_extrapolates_model(self):
        rig = star_rig(1, seed=11)
        hub = rig.node("hub")
        mrm = MrmAgent(hub, "g0", config=MrmConfig(update_interval=100.0))
        view = NodeView.collect(hub)
        mrm.accept_report("hub", view, cpu_slope=-10.0)
        rig.run(until=5.0)
        rec = mrm.members["hub"]
        extrapolated = mrm._member_free_cpu(rec)
        assert extrapolated == pytest.approx(
            view.snapshot.cpu_available - 50.0)


class TestFloodBaseline:
    def test_flood_resolves_but_costs_more_messages(self):
        rig = SimRig(clustered(3, 3), seed=12)
        rig.node("c2h2").install_package(counter_package())
        cfg = RegistryConfig(update_interval=2.0)
        dr = DistributedRegistry(rig.nodes, cfg)
        dr.deploy(groups_by_cluster(rig.topology.host_ids()))
        rig.run(until=dr.settle_time())

        hier_before = rig.metrics.get("registry.query.msgs")
        rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        hier_msgs = rig.metrics.get("registry.query.msgs") - hier_before

        flood = FloodResolver(rig.node("c0h2"), rig.topology.host_ids(),
                              cfg.mrm_config())
        flood_before = rig.metrics.get("registry.flood.msgs")
        rig.run(until=flood.resolve(COUNTER_IFACE.repo_id))
        flood_msgs = rig.metrics.get("registry.flood.msgs") - flood_before
        assert flood_msgs > hier_msgs

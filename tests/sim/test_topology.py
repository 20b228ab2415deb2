"""Unit tests for topology construction and routing."""

import pytest

from repro.sim.rng import RngRegistry
from repro.sim.topology import (
    DESKTOP,
    LAN,
    MODEM,
    PDA,
    SERVER,
    WAN,
    HostProfile,
    Topology,
    clustered,
    line,
    random_mesh,
    star,
)
from repro.util.errors import ConfigurationError


class TestConstruction:
    def test_add_host_and_lookup(self):
        topo = Topology()
        host = topo.add_host("a", SERVER)
        assert topo.host("a") is host
        assert host.profile.cpu_power == 1000.0

    def test_duplicate_host_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(ConfigurationError):
            topo.add_host("a")

    def test_unknown_host_rejected(self):
        topo = Topology()
        with pytest.raises(ConfigurationError):
            topo.host("ghost")

    def test_link_requires_existing_endpoints(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "b")

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_host("a")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "a")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        topo.add_link("a", "b")
        with pytest.raises(ConfigurationError):
            topo.add_link("b", "a")

    def test_link_lookup_symmetric(self):
        topo = Topology()
        topo.add_host("a")
        topo.add_host("b")
        link = topo.add_link("a", "b", WAN)
        assert topo.link("a", "b") is link
        assert topo.link("b", "a") is link
        assert link.latency == WAN.latency


class TestRouting:
    def test_route_to_self(self):
        topo = star(2)
        assert topo.route("h0", "h0") == ["h0"]

    def test_star_routes_via_hub(self):
        topo = star(3)
        assert topo.route("h0", "h2") == ["h0", "hub", "h2"]

    def test_line_route_full_length(self):
        topo = line(5)
        assert topo.route("h0", "h4") == ["h0", "h1", "h2", "h3", "h4"]

    def test_unreachable_after_link_cut(self):
        topo = line(3)
        topo.set_link_state("h0", "h1", up=False)
        assert topo.route("h0", "h2") is None
        assert not topo.reachable("h0", "h2")

    def test_route_heals_when_link_restored(self):
        topo = line(3)
        topo.set_link_state("h0", "h1", up=False)
        assert topo.route("h0", "h2") is None
        topo.set_link_state("h0", "h1", up=True)
        assert topo.route("h0", "h2") == ["h0", "h1", "h2"]

    def test_dead_host_not_routed_through(self):
        topo = line(3)
        topo.set_host_state("h1", alive=False)
        assert topo.route("h0", "h2") is None

    def test_route_prefers_low_latency(self):
        topo = Topology()
        for h in "abcd":
            topo.add_host(h)
        topo.add_link("a", "d", MODEM)       # direct but 100 ms
        topo.add_link("a", "b", LAN)
        topo.add_link("b", "c", LAN)
        topo.add_link("c", "d", LAN)         # 3 hops but 1.5 ms total
        assert topo.route("a", "d") == ["a", "b", "c", "d"]

    def test_path_links(self):
        topo = line(4)
        path = topo.route("h0", "h3")
        links = topo.path_links(path)
        assert len(links) == 3
        assert links[0].key == ("h0", "h1")


class TestLiveness:
    def test_crash_fires_callbacks(self):
        topo = star(1)
        seen = []
        topo.host("h0").on_crash.append(lambda h: seen.append(h.host_id))
        topo.set_host_state("h0", alive=False)
        assert seen == ["h0"]
        # Crashing an already-dead host is a no-op.
        topo.set_host_state("h0", alive=False)
        assert seen == ["h0"]

    def test_restart_fires_callbacks(self):
        topo = star(1)
        seen = []
        topo.host("h0").on_restart.append(lambda h: seen.append(h.host_id))
        topo.set_host_state("h0", alive=False)
        topo.set_host_state("h0", alive=True)
        assert seen == ["h0"]

    def test_restart_callback_routes_over_the_new_liveness(self):
        topo = line(3)
        topo.set_host_state("h2", alive=False)
        assert topo.route("h0", "h2") is None      # cached while dead
        seen = []
        topo.host("h2").on_restart.append(
            lambda h: seen.append((topo.route("h0", "h2"),
                                   topo.route_links("h2", "h0"))))
        topo.set_host_state("h2", alive=True)
        assert seen == [(["h0", "h1", "h2"],
                         [topo.link("h2", "h1"), topo.link("h1", "h0")])]

    def test_crash_callback_does_not_route_through_the_dead_host(self):
        topo = line(3)
        assert topo.route("h0", "h2") == ["h0", "h1", "h2"]   # cached
        assert topo.route_links("h0", "h2") is not None
        seen = []
        topo.host("h1").on_crash.append(
            lambda h: seen.append((topo.route("h0", "h2"),
                                   topo.route_links("h0", "h2"))))
        topo.set_host_state("h1", alive=False)
        assert seen == [(None, None)]

    def test_transition_to_current_state_flushes_nothing(self):
        topo = line(3)
        topo.route_links("h0", "h2")
        trees, links = dict(topo._trees), dict(topo._link_cache)
        assert trees and links
        topo.set_host_state("h1", alive=True)
        topo.set_link_state("h0", "h1", up=True)
        assert topo._trees == trees and topo._link_cache == links
        topo.set_host_state("h1", alive=False)
        topo.set_link_state("h0", "h1", up=False)
        assert not topo._trees and not topo._link_cache
        topo.route_links("h0", "h2")
        cached = dict(topo._link_cache)
        topo.set_host_state("h1", alive=False)
        topo.set_link_state("h0", "h1", up=False)
        assert topo._link_cache == cached


class TestProfiles:
    def test_pda_is_tiny(self):
        assert PDA.is_tiny
        assert not SERVER.is_tiny

    def test_scaled_profile(self):
        fast = DESKTOP.scaled(2.0)
        assert fast.cpu_power == DESKTOP.cpu_power * 2
        assert fast.os == DESKTOP.os


class TestBuilders:
    def test_clustered_shape(self):
        topo = clustered(3, 4)
        assert len(topo.host_ids()) == 12
        # intra-cluster routes are direct (full mesh: a LAN switch)
        assert topo.route("c0h1", "c0h2") == ["c0h1", "c0h2"]
        # inter-cluster routes pass through cluster heads
        route = topo.route("c0h1", "c2h3")
        assert route[0] == "c0h1" and route[-1] == "c2h3"
        assert "c1h0" in route

    def test_clustered_survives_head_loss_within_cluster(self):
        topo = clustered(2, 4)
        topo.set_host_state("c0h0", alive=False)
        # intra-cluster connectivity survives losing the gateway
        assert topo.reachable("c0h1", "c0h3")
        # but inter-cluster traffic from c0 is cut (it was the gateway)
        assert not topo.reachable("c0h1", "c1h1")

    def test_clustered_inter_links_are_wan(self):
        topo = clustered(2, 2)
        assert topo.link("c0h0", "c1h0").link_class.name == "wan"
        assert topo.link("c0h0", "c0h1").link_class.name == "lan"

    def test_clustered_chords_backbone_shortens_wan_diameter(self):
        chain = clustered(16, 2)
        chords = clustered(16, 2, backbone="chords")
        # chain: c0 -> c15 crosses every intermediate gateway
        assert len(chain.route("c0h0", "c15h0")) == 16
        # ring + power-of-two chords: logarithmic gateway hops
        assert len(chords.route("c0h0", "c15h0")) <= 5
        # every pair still reachable, links still WAN class
        for c in range(16):
            assert chords.reachable("c0h1", f"c{c}h1")
        assert chords.link("c0h0", "c1h0").link_class.name == "wan"
        assert chords.link("c0h0", "c8h0").link_class.name == "wan"

    def test_clustered_chords_small_counts_degenerate_to_chain(self):
        # with <= 2 clusters there is nothing to chord
        duo = clustered(2, 2, backbone="chords")
        assert len(list(duo.links())) == len(
            list(clustered(2, 2).links()))

    def test_clustered_rejects_unknown_backbone(self):
        with pytest.raises(ConfigurationError):
            clustered(2, 2, backbone="mesh")

    def test_random_mesh_connected_and_deterministic(self):
        rng1 = RngRegistry(7).stream("topo")
        rng2 = RngRegistry(7).stream("topo")
        t1 = random_mesh(20, degree=3.0, rng=rng1)
        t2 = random_mesh(20, degree=3.0, rng=rng2)
        assert sorted(l.key for l in t1.links()) == sorted(
            l.key for l in t2.links()
        )
        for i in range(1, 20):
            assert t1.reachable("h0", f"h{i}")

    def test_random_mesh_dense_never_adds_a_link_twice(self):
        # "h2" <-> "h10": numeric and lexical host order disagree, which
        # the duplicate check used to trip over once n passed 10.
        for seed in range(10):
            topo = random_mesh(16, degree=4.0,
                               rng=RngRegistry(seed).stream("topo"))
            assert len(topo.links()) == 32

    def test_star_profiles(self):
        topo = star(2, hub_profile=SERVER, leaf_profile=PDA)
        assert topo.host("hub").profile is SERVER
        assert topo.host("h0").profile is PDA

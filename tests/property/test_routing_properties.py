"""Routing oracle: ``Topology.route`` against a Bellman-Ford reference.

Random meshes (links drawn from four classes, LAN most often, so both
ties and fewest-hops-is-not-fastest occur) and chord-backbone clusters
(many equal-latency WAN paths) under random host kills / revivals and
link cuts / heals.  After every step, for every ordered pair of hosts:

- ``route`` is ``None`` iff the reference finds no live path;
- a returned path starts and ends right, visits live hosts only and
  crosses only existing, up links;
- its latency is the reference optimum;
- ``route_links`` is exactly the links along ``route``;

and each source's shortest-path tree is built at most once between two
effective liveness changes.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngRegistry
from repro.sim.topology import LAN, MODEM, WAN, WIRELESS, clustered
from tests.oracles.mesh import random_mesh


def _reference(topo, src: str) -> dict:
    """Bellman-Ford latencies from *src* over live hosts and up links."""
    live = {h.host_id for h in topo.hosts() if h.alive}
    if src not in live:
        return {}
    edges = [(l.a, l.b, l.latency) for l in topo.links()
             if l.up and l.a in live and l.b in live]
    dist = {src: 0.0}
    for _ in range(len(live)):
        changed = False
        for a, b, w in edges:
            for u, v in ((a, b), (b, a)):
                if u in dist and dist[u] + w < dist.get(v, math.inf):
                    dist[v] = dist[u] + w
                    changed = True
        if not changed:
            break
    return dist


def _check_all_pairs(topo) -> None:
    ids = topo.host_ids()
    for src in ids:
        best = _reference(topo, src)
        for dst in ids:
            path = topo.route(src, dst)
            links = topo.route_links(src, dst)
            if src == dst:
                assert path == [src] and links == []
                continue
            if dst not in best:
                assert path is None and links is None, (src, dst, path)
                continue
            assert path is not None, (src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(set(path)) == len(path)
            assert all(topo.host(h).alive for h in path)
            hops = topo.path_links(path)
            assert all(link.up for link in hops)
            assert math.isclose(sum(link.latency for link in hops),
                                best[dst], rel_tol=1e-9), (src, dst, path)
            assert len(links) == len(hops)
            assert all(x is y for x, y in zip(links, hops))


@st.composite
def _worlds(draw):
    if draw(st.booleans()):
        n = draw(st.integers(3, 14))
        degree = draw(st.floats(2.0, 4.0))
        seed = draw(st.integers(0, 2 ** 16))
        topo = random_mesh(n, degree, RngRegistry(seed).stream("mesh"))
        # Nothing has been routed yet, so no cache holds a latency.
        for link in topo.links():
            link.link_class = draw(st.sampled_from(
                [LAN, LAN, LAN, WIRELESS, WAN, MODEM]))
    else:
        topo = clustered(draw(st.integers(3, 9)), draw(st.integers(1, 3)),
                         backbone="chords")
    steps = draw(st.lists(
        st.tuples(st.sampled_from(["host", "link"]),
                  st.integers(0, 10 ** 6), st.booleans()),
        max_size=8))
    return topo, steps


@given(_worlds())
@settings(max_examples=60, deadline=None)
def test_routes_match_bellman_ford_through_churn(world):
    topo, steps = world
    hosts, links = topo.hosts(), topo.links()
    epoch = 0
    builds: Counter = Counter()
    build_tree = topo._tree

    def counted(src):
        builds[(epoch, src)] += 1
        return build_tree(src)

    topo._tree = counted
    _check_all_pairs(topo)
    for kind, pick, state in steps:
        if kind == "host":
            host = hosts[pick % len(hosts)]
            epoch += host.alive != state
            topo.set_host_state(host.host_id, alive=state)
        else:
            link = links[pick % len(links)]
            epoch += link.up != state
            topo.set_link_state(link.a, link.b, up=state)
        _check_all_pairs(topo)
    assert builds and max(builds.values()) == 1, builds.most_common(3)

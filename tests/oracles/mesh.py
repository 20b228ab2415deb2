"""A random connected topology: the routing properties' input graph."""

from __future__ import annotations

from repro.sim.topology import DESKTOP, LAN, Topology


def random_mesh(n: int, degree: float, rng) -> Topology:
    """A connected random graph of *n* desktop hosts joined by LAN links,
    with average degree ~*degree*.

    Built as a random spanning tree plus extra random edges; always
    connected, deterministic under the supplied *rng*.
    """
    topo = Topology()
    for i in range(n):
        topo.add_host(f"h{i}", DESKTOP)
    # random spanning tree
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):
        a = order[idx]
        b = order[int(rng.integers(0, idx))]
        topo.add_link(f"h{a}", f"h{b}", LAN)
    # extra edges
    extra = max(0, int(n * degree / 2) - (n - 1))
    tries = 0
    while extra > 0 and tries < 50 * n:
        tries += 1
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b or f"h{b}" in topo._adj[f"h{a}"]:
            continue
        topo.add_link(f"h{min(a, b)}", f"h{max(a, b)}", LAN)
        extra -= 1
    return topo

"""Network topology: hosts, links, routing, and hardware profiles.

The paper's requirement 8 ("integration of tiny devices ... PDAs as well
as high-end servers") makes host heterogeneity load-bearing, so hosts
carry a :class:`HostProfile` describing CPU power, memory, OS/arch/ORB
identity and whether the device is "tiny".  Links carry latency,
bandwidth and loss so that the packaging/migration experiments can
distinguish a LAN from a modem line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappop, heappush
from math import inf
from typing import Callable, Optional

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class HostProfile:
    """Static hardware/platform description of a host.

    These are exactly the "static characteristics (such as CPU and
    Operating System Type, ORB)" the Node's Resource Manager exposes.
    """

    name: str
    cpu_power: float  # relative work units per simulated second
    memory_mb: int
    os: str
    arch: str
    orb: str
    is_tiny: bool = False

    def scaled(self, factor: float) -> "HostProfile":
        """A copy with CPU power scaled by *factor* (heterogeneity knobs)."""
        return replace(self, cpu_power=self.cpu_power * factor)


#: Representative profiles used throughout tests/benchmarks.
SERVER = HostProfile("server", cpu_power=1000.0, memory_mb=4096,
                     os="linux", arch="x86", orb="corba-lc", is_tiny=False)
DESKTOP = HostProfile("desktop", cpu_power=400.0, memory_mb=512,
                      os="win32", arch="x86", orb="corba-lc", is_tiny=False)
PDA = HostProfile("pda", cpu_power=20.0, memory_mb=16,
                  os="palmos", arch="arm", orb="corba-lc-micro", is_tiny=True)


@dataclass(frozen=True)
class LinkClass:
    """A technology class for links: latency (s), bandwidth (bytes/s), loss."""

    name: str
    latency: float
    bandwidth: float
    loss: float = 0.0


LAN = LinkClass("lan", latency=0.0005, bandwidth=12_500_000.0)        # 100 Mb/s
WAN = LinkClass("wan", latency=0.030, bandwidth=1_250_000.0)          # 10 Mb/s
WIRELESS = LinkClass("wireless", latency=0.005, bandwidth=687_500.0,  # 5.5 Mb/s
                     loss=0.01)
MODEM = LinkClass("modem", latency=0.100, bandwidth=7_000.0)          # 56 kb/s


class Host:
    """A machine participating in the network."""

    def __init__(self, host_id: str, profile: HostProfile) -> None:
        self.host_id = host_id
        self.profile = profile
        self.alive = True
        #: Called (with this host) when the host crashes / restarts, so
        #: services running on it can stop/restart themselves.
        self.on_crash: list[Callable[["Host"], None]] = []
        self.on_restart: list[Callable[["Host"], None]] = []

    def crash(self) -> None:
        if not self.alive:
            return
        self.alive = False
        for cb in list(self.on_crash):
            cb(self)

    def restart(self) -> None:
        if self.alive:
            return
        self.alive = True
        for cb in list(self.on_restart):
            cb(self)

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return f"<Host {self.host_id} [{self.profile.name}] {state}>"


class Link:
    """A bidirectional link between two hosts."""

    def __init__(self, a: str, b: str, link_class: LinkClass) -> None:
        self.a = a
        self.b = b
        self.link_class = link_class
        self.up = True
        #: Simulated time until which the link is busy serializing earlier
        #: messages (store-and-forward queueing model).
        self.busy_until = 0.0

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    @property
    def latency(self) -> float:
        return self.link_class.latency

    @property
    def bandwidth(self) -> float:
        return self.link_class.bandwidth

    @property
    def loss(self) -> float:
        return self.link_class.loss

    def __repr__(self) -> str:
        state = "up" if self.up else "CUT"
        return f"<Link {self.a}<->{self.b} {self.link_class.name} {state}>"


class Topology:
    """Hosts + links + shortest-latency routing.

    Routing uses latency-weighted shortest paths over the subgraph of
    live hosts and un-cut links: one Dijkstra per *source* answers every
    destination from it.  Trees and per-pair link lists are cached and
    dropped together on any topology or liveness change.  Equal-latency
    paths are resolved by a fixed rule, never by hash order: neighbours
    are relaxed in link-insertion order, only a strictly shorter path
    replaces a known one, and of two heap entries of equal latency the
    one pushed first settles first.
    """

    def __init__(self) -> None:
        self._hosts: dict[str, Host] = {}
        self._links: list[Link] = []
        #: host -> {neighbour: Link}, neighbours in link-insertion order
        #: (the routing tie-break depends on it).
        self._adj: dict[str, dict[str, Link]] = {}
        #: src -> {reachable host: previous host on the path from src}.
        self._trees: dict[str, dict[str, str]] = {}
        #: (src, dst) -> links of the live route, None when unreachable.
        self._link_cache: dict[tuple[str, str], Optional[list["Link"]]] = {}

    # -- construction ------------------------------------------------------
    def add_host(self, host_id: str, profile: HostProfile = DESKTOP) -> Host:
        if host_id in self._hosts:
            raise ConfigurationError(f"duplicate host id {host_id!r}")
        host = Host(host_id, profile)
        self._hosts[host_id] = host
        self._adj[host_id] = {}
        self._invalidate()
        return host

    def add_link(self, a: str, b: str, link_class: LinkClass = LAN) -> Link:
        if a not in self._hosts or b not in self._hosts:
            raise ConfigurationError(f"link endpoints must exist: {a!r}, {b!r}")
        if a == b:
            raise ConfigurationError("self-links are not allowed")
        if b in self._adj[a]:
            raise ConfigurationError(f"duplicate link {a!r}<->{b!r}")
        link = Link(a, b, link_class)
        self._links.append(link)
        self._adj[a][b] = self._adj[b][a] = link
        self._invalidate()
        return link

    # -- access ------------------------------------------------------------
    def host(self, host_id: str) -> Host:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise ConfigurationError(f"unknown host {host_id!r}") from None

    def __contains__(self, host_id: str) -> bool:
        return host_id in self._hosts

    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    def host_ids(self) -> list[str]:
        return list(self._hosts)

    def link(self, a: str, b: str) -> Link:
        try:
            return self._adj[a][b]
        except KeyError:
            raise ConfigurationError(f"no link {a!r}<->{b!r}") from None

    def links(self) -> list[Link]:
        return list(self._links)

    # -- liveness / partitions ----------------------------------------------
    def _invalidate(self) -> None:
        self._trees.clear()
        self._link_cache.clear()

    def set_link_state(self, a: str, b: str, up: bool) -> None:
        link = self.link(a, b)
        if link.up != up:
            link.up = up
            self._invalidate()

    def set_host_state(self, host_id: str, alive: bool) -> None:
        host = self.host(host_id)
        if host.alive == alive:
            return
        # Flush before crash()/restart() run the host's callbacks, so a
        # service reacting to the transition routes over the new liveness.
        self._invalidate()
        if alive:
            host.restart()
        else:
            host.crash()

    # -- routing -------------------------------------------------------------
    def _tree(self, src: str) -> dict[str, str]:
        """Shortest-latency tree from *src* over live hosts and up links
        as ``{host: previous host}``; a dead *src* reaches nothing."""
        hosts, adj = self._hosts, self._adj
        prev: dict[str, str] = {}
        dist = {src: 0.0}
        heap = [(0.0, 0, src)] if self.host(src).alive else []
        pushed = 0
        while heap:
            d, _, u = heappop(heap)
            if d > dist[u]:
                continue        # superseded by a strictly shorter entry
            for v, link in adj[u].items():
                if link.up and hosts[v].alive:
                    nd = d + link.link_class.latency
                    if nd < dist.get(v, inf):
                        dist[v] = nd
                        prev[v] = u
                        pushed += 1
                        heappush(heap, (nd, pushed, v))
        return prev

    def route(self, src: str, dst: str) -> Optional[list[str]]:
        """Host-id path from *src* to *dst* (both must exist), or None
        when no path over live hosts and up links joins them."""
        if src == dst:
            return [src]
        prev = self._trees.get(src)
        if prev is None:
            prev = self._trees[src] = self._tree(src)
        if dst not in prev:
            self.host(dst)
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def path_links(self, path: list[str]) -> list[Link]:
        """The links along a host path."""
        return [self.link(a, b) for a, b in zip(path, path[1:])]

    def route_links(self, src: str, dst: str) -> Optional[list[Link]]:
        """The links along ``route(src, dst)`` (None when unreachable),
        cached per pair: Network.send reads this once per message."""
        key = (src, dst)
        try:
            return self._link_cache[key]
        except KeyError:
            pass
        path = self.route(src, dst)
        links = None if path is None else self.path_links(path)
        self._link_cache[key] = links
        return links

    def reachable(self, src: str, dst: str) -> bool:
        return self.route(src, dst) is not None


# -- topology builders --------------------------------------------------------

def star(n_leaves: int, hub_profile: HostProfile = SERVER,
         leaf_profile: HostProfile = DESKTOP,
         link_class: LinkClass = LAN) -> Topology:
    """A hub host ``hub`` with *n_leaves* hosts ``h0..h{n-1}`` around it."""
    topo = Topology()
    topo.add_host("hub", hub_profile)
    for i in range(n_leaves):
        topo.add_host(f"h{i}", leaf_profile)
        topo.add_link("hub", f"h{i}", link_class)
    return topo


def line(n: int) -> Topology:
    """Desktop hosts ``h0..h{n-1}`` in a chain of LAN links."""
    topo = Topology()
    for i in range(n):
        topo.add_host(f"h{i}", DESKTOP)
    for i in range(n - 1):
        topo.add_link(f"h{i}", f"h{i+1}", LAN)
    return topo


def clustered(n_clusters: int, cluster_size: int,
              profile: HostProfile = DESKTOP,
              backbone: str = "chain") -> Topology:
    """LAN clusters joined by WAN links between their first hosts.

    Hosts are named ``c{i}h{j}``.  Each cluster is a full mesh (hosts on
    one switch: no peer host is a single point of failure for intra-LAN
    traffic); cluster heads ``c{i}h0`` act as WAN gateways.  This is the
    shape the paper's hierarchical MRM protocol targets: locality inside
    a cluster, expensive links between clusters.

    ``backbone`` picks the gateway interconnect:

    - ``"chain"`` (default) — ``c0h0 - c1h0 - ... `` in a line: the
      historical shape, fine for a handful of clusters.
    - ``"chords"`` — a ring plus power-of-two chord links
      (``ci <-> c(i + 2^k)``), giving an O(log C) WAN diameter.  Use
      this for large cluster counts, where a chain's O(C) diameter
      would make the middle links a bottleneck for all cross traffic.
    """
    if backbone not in ("chain", "chords"):
        raise ConfigurationError(f"unknown backbone {backbone!r}")
    topo = Topology()
    for c in range(n_clusters):
        for j in range(cluster_size):
            topo.add_host(f"c{c}h{j}", profile)
        for j in range(cluster_size):
            for k in range(j + 1, cluster_size):
                topo.add_link(f"c{c}h{j}", f"c{c}h{k}", LAN)
    if backbone == "chain" or n_clusters <= 2:
        for c in range(n_clusters - 1):
            topo.add_link(f"c{c}h0", f"c{c+1}h0", WAN)
        return topo
    offsets = [1]
    step = 2
    while step < n_clusters:
        offsets.append(step)
        step *= 2
    for c in range(n_clusters):
        for offset in offsets:
            a, b = sorted((c, (c + offset) % n_clusters))
            if a != b and f"c{b}h0" not in topo._adj[f"c{a}h0"]:
                topo.add_link(f"c{a}h0", f"c{b}h0", WAN)
    return topo


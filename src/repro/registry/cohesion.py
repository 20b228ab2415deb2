"""The Network Cohesion protocol (§2.4.1, §2.4.3).

"Operations for making this node available to the network and to
interact with the rest of nodes of the whole system.  The Network
Cohesion interface supports this protocol for logical network
cohesion", covering "which nodes are available, message routing,
ping/reply handshaking".

Each node runs a :class:`CohesionAgent`:

- on startup (and reconnection) it **joins** by announcing itself to a
  set of seed peers, which reply with the peers *they* know — the view
  converges by anti-entropy;
- it **pings** a deterministic rotation of known peers every interval;
  a peer counts as down while the node's failure detector
  (``ORB.suspects``) holds ``suspect_after`` or more timed-out calls to
  it, and any frame from it clears that;
- a peer that goes away is detected by timeout (there is no leave
  announcement);
- the resulting live-peer view is what group formation and builder
  tools start from.

Cohesion answers "who is in the logical network", MRM views answer
"what resources do they offer"; both read the one detector of their
node rather than keeping clocks of their own.
"""

from __future__ import annotations

from typing import Optional

from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.orb.typecodes import sequence_tc, tc_boolean, tc_string
from repro.sim.hostloop import HostLoop

COHESION_ADAPTER = "node"
COHESION_KEY = "cohesion"

COHESION_IFACE = InterfaceDef(
    "IDL:corbalc/Node/NetworkCohesion:1.0",
    "NetworkCohesion",
    operations=[
        # join handshake: announce yourself, learn the peer's view
        op("join", [("host", tc_string)], sequence_tc(tc_string)),
        # liveness handshake
        op("ping", [("host", tc_string)], tc_boolean),
    ],
)


def cohesion_ior(host_id: str) -> IOR:
    return IOR(COHESION_IFACE.repo_id, host_id, COHESION_ADAPTER,
               COHESION_KEY)


class CohesionServant(Servant):
    _interface = COHESION_IFACE

    def __init__(self, agent: "CohesionAgent") -> None:
        self.agent = agent

    def join(self, host: str) -> list[str]:
        self.agent._learn(host)
        return self.agent.known_hosts(include_self=True)

    def ping(self, host: str) -> bool:
        self.agent._learn(host)
        return True


class CohesionAgent:
    """One node's participation in the logical network."""

    def __init__(self, node, seeds: list[str],
                 ping_interval: float = 3.0,
                 suspect_after: int = 2,
                 fanout: int = 3) -> None:
        self.node = node
        self.seeds = [s for s in seeds if s != node.host_id]
        self.ping_interval = ping_interval
        self.suspect_after = suspect_after
        self.fanout = fanout
        self.peers: set[str] = set()
        self.joins_seen = 0
        self._rotation = 0
        node.orb.adapter(COHESION_ADAPTER).activate(
            CohesionServant(self), key=COHESION_KEY)
        # A crash costs the peer view (RAM); the restarted loop begins
        # with JOIN again: graceful reconnection.
        self.loop = HostLoop(node.env, node.host, self._join_then_ping,
                             on_crash=self.peers.clear)

    # -- view --------------------------------------------------------------
    def known_hosts(self, include_self: bool = False) -> list[str]:
        hosts = {h for h in self.peers if self.is_peer_alive(h)}
        if include_self:
            hosts.add(self.node.host_id)
        return sorted(hosts)

    def is_peer_alive(self, host: str) -> bool:
        return (host in self.peers and self.node.orb.suspects.get(host, 0)
                < self.suspect_after)

    # -- membership bookkeeping ------------------------------------------------
    def _learn(self, host: str) -> None:
        if host != self.node.host_id and host not in self.peers:
            self.peers.add(host)
            self.joins_seen += 1

    # -- the protocol ------------------------------------------------------------------
    def _join_then_ping(self):
        join_op = COHESION_IFACE.operations["join"]
        ping_op = COHESION_IFACE.operations["ping"]
        env = self.node.env
        # JOIN: contact seeds, adopt their views (anti-entropy).
        for seed in self.seeds:
            try:
                theirs = yield self.node.orb.invoke(
                    cohesion_ior(seed), join_op,
                    (self.node.host_id,), timeout=2.0,
                    meter="cohesion")
            except SystemException:
                continue
            for host in theirs:
                self._learn(host)

        # PING loop: a deterministic rotation over known peers.
        while True:
            yield env.timeout(self.ping_interval)
            targets = self._pick_targets()
            for host in targets:
                if host not in self.peers:
                    continue
                try:
                    # The outcome feeds the node's detector: a reply
                    # clears a suspicion, a timeout adds one.
                    yield self.node.orb.invoke(
                        cohesion_ior(host), ping_op,
                        (self.node.host_id,), timeout=1.5,
                        meter="cohesion")
                except SystemException:
                    pass

    def _pick_targets(self) -> list[str]:
        hosts = sorted(self.peers)
        if not hosts:
            return []
        picked = []
        for _ in range(min(self.fanout, len(hosts))):
            picked.append(hosts[self._rotation % len(hosts)])
            self._rotation += 1
        return picked


def deploy_cohesion(nodes: dict, seeds: Optional[list[str]] = None,
                    **agent_kwargs) -> dict[str, CohesionAgent]:
    """Stand up cohesion agents on every node.

    *seeds* defaults to the first node — the "well-known entry point"
    pattern; the anti-entropy join spreads the full view from there.
    """
    host_ids = list(nodes)
    if seeds is None:
        seeds = host_ids[:1]
    return {
        host: CohesionAgent(nodes[host], seeds=seeds, **agent_kwargs)
        for host in host_ids
    }

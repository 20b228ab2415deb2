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
- it **pings** a deterministic rotation of known peers every interval
  and marks peers dead after ``suspect_after`` missed replies;
- leaves are graceful (``leave`` announcement) or detected by timeout;
- the resulting live-peer view is what group formation and builder
  tools start from.

This peer-level liveness layer is deliberately independent of the MRM
soft-state layer: cohesion answers "who is in the logical network",
MRM views answer "what resources do they offer".
"""

from __future__ import annotations

from dataclasses import dataclass
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
        op("leave", [("host", tc_string)], oneway=True),
        # liveness handshake
        op("ping", [("host", tc_string)], tc_boolean),
        op("known_peers", [], sequence_tc(tc_string)),
    ],
)


def cohesion_ior(host_id: str) -> IOR:
    return IOR(COHESION_IFACE.repo_id, host_id, COHESION_ADAPTER,
               COHESION_KEY)


@dataclass
class PeerRecord:
    host: str
    last_seen: float
    missed: int = 0
    alive: bool = True


class CohesionServant(Servant):
    _interface = COHESION_IFACE

    def __init__(self, agent: "CohesionAgent") -> None:
        self.agent = agent

    def join(self, host: str) -> list[str]:
        self.agent._learn(host)
        return self.agent.known_hosts(include_self=True)

    def leave(self, host: str) -> None:
        self.agent._forget(host)

    def ping(self, host: str) -> bool:
        self.agent._learn(host)
        return True

    def known_peers(self) -> list[str]:
        return self.agent.known_hosts(include_self=True)


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
        self.peers: dict[str, PeerRecord] = {}
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
        hosts = sorted(h for h, rec in self.peers.items() if rec.alive)
        if include_self:
            hosts = sorted(set(hosts) | {self.node.host_id})
        return hosts

    def is_peer_alive(self, host: str) -> bool:
        rec = self.peers.get(host)
        return rec is not None and rec.alive

    # -- membership bookkeeping ------------------------------------------------
    def _learn(self, host: str) -> None:
        if host == self.node.host_id:
            return
        rec = self.peers.get(host)
        if rec is None:
            self.peers[host] = PeerRecord(host=host,
                                          last_seen=self.node.env.now)
            self.joins_seen += 1
        else:
            rec.last_seen = self.node.env.now
            rec.missed = 0
            rec.alive = True

    def _forget(self, host: str) -> None:
        self.peers.pop(host, None)

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
                rec = self.peers.get(host)
                if rec is None:
                    continue
                try:
                    yield self.node.orb.invoke(
                        cohesion_ior(host), ping_op,
                        (self.node.host_id,), timeout=1.5,
                        meter="cohesion")
                    rec.last_seen = env.now
                    rec.missed = 0
                    rec.alive = True
                except SystemException:
                    rec.missed += 1
                    if rec.missed >= self.suspect_after:
                        rec.alive = False

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

"""Shard-neighborhood resolution.

A :class:`FederatedResolver` replaces the flood/hierarchy search with
a ring lookup: the owners of ``hash(repo_id)`` — and only those — are
asked for candidates, in failover order.  The query cost is O(owners
consulted), independent of population size, which is the federated
registry's scaling argument (benchmark C18).

Resolution must *degrade*, not die, when the neighborhood does: if
none of the key's replication-set owners answers (all crashed, or
partitioned away together), the resolver widens to the remaining ring
owners in ring order, and — only when the whole ring is unreachable —
falls back to a flood query of the population.  The flood tier is
O(hosts) and exists purely as the emergency path; its use is counted
(``federation.lookup.flood_fallback``) so operators see when the ring
stopped carrying lookups.
"""

from __future__ import annotations

from repro.obs import names
from repro.orb.exceptions import SystemException, TRANSIENT
from repro.registry.queries import FloodResolver, ResolverBase
from repro.registry.federation.shard import SHARD_IFACE, shard_ior
from repro.registry.view import Candidate
from repro.xmlmeta.descriptors import QoSSpec

_LOOKUP = SHARD_IFACE.operations["lookup"]


class FederatedResolver(ResolverBase):
    """Resolution against the repo-id's shard neighborhood."""

    def __init__(self, node, ring, config) -> None:
        super().__init__(node, config.mrm_config(),
                         placement=config.placement)
        self.ring = ring
        self.fed_config = config
        self._flood = None

    def _find(self, repo_id: str, qos: QoSSpec):
        primaries = self.ring.owners(repo_id, self.fed_config.replication)
        primary_answered = False
        for host in primaries:
            values = yield from self._ask(host, repo_id, qos)
            if values:
                return values
            if values is not None:
                primary_answered = True
        if primary_answered:
            # A replication-set owner answered (empty).  That is
            # authoritative — it owns the key — so don't widen to
            # owners that merely *might* hold stale state.
            return []
        # Widen past the replication set only now that it failed
        # entirely (the whole-ring walk is the costly one): the extra
        # ring owners hold the key's records after a rebalance moved it
        # onto them (anti-entropy backfill), and answer authoritatively
        # then.  An extra owner's *empty* answer proves only that the
        # ring is reachable, not that the key has no records — keep
        # going, and let the flood tier decide.
        for host in self.ring.owners(repo_id, len(self.ring)):
            if host in primaries:
                continue
            self.node.metrics.counter(
                names.FEDERATION_LOOKUP_RING_FALLBACK).inc()
            values = yield from self._ask(host, repo_id, qos)
            if values:
                return values
        # No owner of the key answered: its whole replication set is
        # dead or unreachable.  Survive it: interrogate the population
        # directly, like the pre-ring flood protocol did.  Expensive,
        # but correct — a registry outage must not make running
        # providers unresolvable.
        self.node.metrics.counter(
            names.FEDERATION_LOOKUP_FLOOD_FALLBACK).inc()
        return (yield from self._flood_find(repo_id, qos))

    def _ask(self, host: str, repo_id: str, qos: QoSSpec):
        """One owner's candidates; ``None`` when it did not answer."""
        try:
            values = yield self.node.orb.invoke(
                shard_ior(host), _LOOKUP,
                (repo_id, qos.cpu_units, qos.memory_mb, qos.bandwidth_bps),
                timeout=self.fed_config.query_timeout,
                meter="federation.lookup")
        except SystemException:
            self.node.metrics.counter(
                names.FEDERATION_LOOKUP_FAILOVER).inc()
            return None
        return [Candidate.from_value(v) for v in values]

    def _flood_find(self, repo_id: str, qos: QoSSpec):
        if self._flood is None:
            self._flood = FloodResolver(
                self.node, self.node.network.topology.host_ids(),
                self.config, placement=self.placement)
        return (yield from self._flood._find(repo_id, qos))

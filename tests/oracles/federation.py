"""Growing a federation's owner set from a test: the running system only
ever shrinks it (``FederatedRegistry.remove_owner``)."""

from __future__ import annotations

from repro.registry.federation.shard import ShardAgent


def add_owner(fed, host: str):
    """Promote *host* to shard owner of *fed*, rebalance the ring onto
    it and start its agent; returns the rebalance report."""
    existing = sorted(fed.agents)
    fed.ring.stage_add(host)
    report = fed.ring.rebalance()
    fed.agents[host] = ShardAgent(
        fed.nodes[host], fed.ring, fed.config,
        seed_peers=existing[:max(1, fed.config.seed_peer_count)])
    return report

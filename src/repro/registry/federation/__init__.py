"""Federated (sharded + gossiped) Distributed Registry.

The MRM hierarchy of :mod:`repro.registry` scales by *summarizing*:
each level compresses its subtree.  This package scales the other
axis — population — by *partitioning*: the record space is consistent-
hashed over a small set of shard owners
(:class:`~repro.registry.federation.ring.ShardRing`), owners keep each
other honest with seeded epidemic gossip and periodic anti-entropy
syncs (:class:`~repro.registry.federation.shard.ShardAgent`), and
resolvers ask only the few owners of the wanted repo-id
(:class:`~repro.registry.federation.resolver.FederatedResolver`).

It is the registry's second back end: construct
:class:`~repro.registry.federation.orchestrator.FederatedRegistry`
where a :class:`~repro.registry.groups.DistributedRegistry` would
otherwise go — both expose ``reporters``, ``resolvers``,
``live_hosts()`` and ``settle_time()``.  The ring and record/merge
primitives are dependency-free on purpose: partitioned deployment
planning reuses them.
"""

from repro.registry.federation.orchestrator import (
    FederatedRegistry,
    FederationConfig,
    FederationReporter,
)
from repro.registry.federation.records import (
    HostBeacon,
    MembershipTable,
    ProviderRecord,
    RecordStore,
)
from repro.registry.federation.resolver import FederatedResolver
from repro.registry.federation.ring import (
    RebalanceReport,
    ShardRing,
    ring_point,
)
from repro.registry.federation.shard import (
    SHARD_IFACE,
    ShardAgent,
    shard_ior,
)

__all__ = [
    "FederatedRegistry",
    "FederationConfig",
    "FederationReporter",
    "FederatedResolver",
    "HostBeacon",
    "MembershipTable",
    "ProviderRecord",
    "RecordStore",
    "RebalanceReport",
    "SHARD_IFACE",
    "ShardAgent",
    "ShardRing",
    "ring_point",
    "shard_ior",
]

"""The Distributed Registry: the network as a resource repository (§2.4.3).

"The complete network is considered as a repository for resolving
component requirements."  This package implements the protocols the
paper specifies for that behaviour:

- :mod:`repro.registry.view` — the wire-level resource views nodes
  publish (snapshot + installed components + running providers).
- :mod:`repro.registry.mrm` — Meta-Resource Managers: group-level soft
  state, member expiry, hierarchical query escalation, parent reporting.
- :mod:`repro.registry.softstate` — the soft-consistency reporter
  ("periodical updates ... which also serve as a keep-alive mechanism").
- :mod:`repro.registry.cohesion` — the Network Cohesion protocol: join
  and ping handshakes over the logical network.

Liveness has one clock per node, its ORB's: ``ORB.heard`` (when a frame
from a host last arrived) expires MRM members and children and feeds
the federation's ``live_hosts()``, and ``ORB.suspects`` (calls that
timed out since) decides cohesion's live peers.  A report or publish
is a keep-alive by arriving; it carries no liveness clock of its own.
- :mod:`repro.registry.strongstate` — the strong-consistency baseline
  (update-per-change with acknowledgements) the paper argues against.
- :mod:`repro.registry.prediction` — dead-reckoning reporters
  ("predictive and adaptive techniques ... reducing even more the
  bandwidth requirements").
- :mod:`repro.registry.queries` — network-wide dependency resolution
  (hierarchical) and the flat-flooding baseline.
- :mod:`repro.registry.replication` — peer-replicated MRMs with
  failover and automatic replica re-creation.
- :mod:`repro.registry.groups` — group formation, MRM placement, the
  :class:`DistributedRegistry` orchestrator.
"""

from repro.registry.groups import DistributedRegistry, RegistryConfig
from repro.registry.mrm import MrmAgent
from repro.registry.queries import FloodResolver, NetworkResolver
from repro.registry.softstate import SoftStateReporter
from repro.registry.strongstate import StrongStateReporter
from repro.registry.prediction import PredictiveReporter
from repro.registry.view import Candidate, NodeView

__all__ = [
    "DistributedRegistry",
    "RegistryConfig",
    "MrmAgent",
    "NetworkResolver",
    "FloodResolver",
    "SoftStateReporter",
    "StrongStateReporter",
    "PredictiveReporter",
    "NodeView",
    "Candidate",
]

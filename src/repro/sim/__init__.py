"""Deterministic discrete-event simulation substrate.

The paper's protocols (network cohesion, soft-state resource updates,
hierarchical queries, replicated Meta-Resource Managers) are distributed
algorithms whose interesting properties are message counts, bandwidth and
failover latency.  This package provides the seeded discrete-event engine
and network model those protocols run on:

- :mod:`repro.sim.kernel` — a SimPy-style event loop (events, generator
  processes, timeouts, conditions, interrupts) with deterministic
  ordering.
- :mod:`repro.sim.rng` — named, independently-seeded random streams.
- :mod:`repro.sim.topology` — hosts (with hardware profiles, e.g. PDA
  vs. server), links, and routing.
- :mod:`repro.sim.network` — store-and-forward message delivery with
  per-link latency, bandwidth queueing, loss and partitions.
- :mod:`repro.sim.faults` — crash/restart and churn injection.
- :mod:`repro.sim.hostloop` — the one crash/restart/stop lifecycle of
  every host-bound service loop.
- :mod:`repro.sim.stats` — counter, gauge and histogram metric collection.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.rng import RngRegistry
from repro.sim.topology import Host, HostProfile, Link, LinkClass, Topology
from repro.sim.network import Message, Network, NetworkInterface
from repro.sim.faults import FaultInjector, ChurnModel
from repro.sim.stats import Counter, Gauge, MetricRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "RngRegistry",
    "Host",
    "HostProfile",
    "Link",
    "LinkClass",
    "Topology",
    "Message",
    "Network",
    "NetworkInterface",
    "FaultInjector",
    "ChurnModel",
    "Counter",
    "Gauge",
    "MetricRegistry",
]

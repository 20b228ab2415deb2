"""CORBA Lightweight Components (CORBA-LC) — a full reproduction.

Implements the component model of Sevilla, García & Gómez, *Design and
Implementation Requirements for CORBA Lightweight Components* (ICPP
2001): a lightweight, reflective, peer-to-peer distributed component
model in which the network as a whole is the repository of components
and resources, and deployment is decided at run time.

Subpackages, bottom-up:

- :mod:`repro.sim` — deterministic discrete-event simulation substrate
  (kernel, topology, network, faults, metrics).
- :mod:`repro.orb` — a CORBA-like ORB (CDR, GIOP, IORs, POA, the
  interface repository, event channels).
- :mod:`repro.idl` — an OMG IDL compiler emitting runtime artifacts.
- :mod:`repro.xmlmeta` — OSD-based XML component descriptors.
- :mod:`repro.packaging` — ZIP component packages with signatures.
- :mod:`repro.components` — the component model: executors, ports,
  factories, reflection.
- :mod:`repro.container` — instance runtime: lifecycle, migration,
  replication, aggregation.
- :mod:`repro.node` — the per-host Node service (paper Fig. 1).
- :mod:`repro.registry` — the Distributed Registry protocols (MRMs,
  soft state, hierarchical queries, replication, prediction).
- :mod:`repro.deployment` — run-time placement, applications, load
  balancing.
- :mod:`repro.cscw` / :mod:`repro.grid` — the paper's §3 domains.
- :mod:`repro.testing` — demo components and simulation rigs.
- Beside them: :mod:`repro.events` (the batched fan-out C17
  measures; no service publishes to it), :mod:`repro.obs`
  (metrics and traces), :mod:`repro.analysis` (static verification),
  :mod:`repro.chaos` (fault campaigns) and :mod:`repro.tools` (CLIs).

Most programs start from :class:`repro.testing.SimRig` (or build an
:class:`repro.sim.Environment` + :class:`repro.sim.Network` +
:class:`repro.node.Node` per host by hand), deploy a
:class:`repro.registry.DistributedRegistry`, install packages, and let
``node.request_component(repo_id)`` do the rest.
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "orb",
    "idl",
    "xmlmeta",
    "packaging",
    "components",
    "container",
    "node",
    "registry",
    "deployment",
    "cscw",
    "grid",
    "testing",
]

"""Reusable demo components and simulation rigs.

Shipping these with the library keeps tests, examples and benchmarks
honest: they all exercise the same public APIs a downstream component
developer would use (executor subclass + package build + install).
"""

from __future__ import annotations

from typing import Optional

from repro.components.executor import ComponentExecutor, StatefulMixin
from repro.idl import compile_idl
from repro.node.node import Node
from repro.orb.core import Servant
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology, star
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    EventPortDecl,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

# ---------------------------------------------------------------------------
# Counter: a small stateful component with every port kind.
# ---------------------------------------------------------------------------

_COUNTER_IDL = """
#pragma prefix "corbalc"
module Demo {
  interface Counter {
    long increment(in long by);
    long read();
  };
};
"""

COUNTER_IFACE = compile_idl(_COUNTER_IDL).Demo.Counter

TICK_KIND = "demo.tick"
POKE_KIND = "demo.poke"


class _CounterFacet(Servant):
    _interface = COUNTER_IFACE

    def __init__(self, executor: "CounterExecutor") -> None:
        self._executor = executor

    def increment(self, by: int) -> int:
        self._executor.count += by
        if self._executor.context is not None:
            self._executor.context.emit("ticks", self._executor.count)
        return self._executor.count

    def read(self) -> int:
        return self._executor.count


class CounterExecutor(StatefulMixin, ComponentExecutor):
    """Counts; emits a tick event per increment; reacts to pokes."""

    STATE_ATTRS = ("count", "pokes_seen")

    def __init__(self) -> None:
        super().__init__()
        self.count = 0
        self.pokes_seen = 0

    def create_facet(self, port_name: str) -> Servant:
        assert port_name == "value"
        return _CounterFacet(self)

    def on_event(self, port_name: str, value) -> None:
        if port_name == "pokes":
            self.pokes_seen += 1


def counter_package(version: str = "1.0.0",
                    name: str = "Counter",
                    mobility: str = "mobile",
                    replication: str = "coordinated",
                    cpu_units: float = 5.0,
                    memory_mb: float = 4.0,
                    payload_size: int = 2_000) -> ComponentPackage:
    """A ready-to-install package around :class:`CounterExecutor`."""
    entry = "demo.counter"
    GLOBAL_BINARIES.register(entry, CounterExecutor)
    soft = SoftwareDescriptor(
        name=name, version=Version.parse(version), vendor="repro-demo",
        abstract="Stateful counter demo component.",
        mobility=mobility, replication=replication,
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/counter")],
    )
    comp = ComponentTypeDescriptor(
        name=name,
        provides=[PortDecl("value", COUNTER_IFACE.repo_id)],
        uses=[PortDecl("peer", COUNTER_IFACE.repo_id, optional=True)],
        emits=[EventPortDecl("ticks", TICK_KIND)],
        consumes=[EventPortDecl("pokes", POKE_KIND)],
        qos=QoSSpec(cpu_units=cpu_units, memory_mb=memory_mb),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("counter", _COUNTER_IDL)
    builder.add_binary("bin/any/counter",
                       synthetic_payload(payload_size, seed=11))
    return ComponentPackage(builder.build())


# ---------------------------------------------------------------------------
# Simulation rigs
# ---------------------------------------------------------------------------

class SimRig:
    """Environment + network + one Node per host."""

    def __init__(self, topology: Topology, seed: int = 0,
                 default_timeout: Optional[float] = 30.0) -> None:
        self.env = Environment()
        self.rngs = RngRegistry(seed)
        self.network = Network(self.env, topology, rngs=self.rngs)
        self.topology = topology
        self.metrics = self.network.metrics
        self.nodes: dict[str, Node] = {
            host_id: Node(self.env, self.network, host_id,
                          default_timeout=default_timeout)
            for host_id in topology.host_ids()
        }
        self.obs = None

    def observe(self):
        """Instrument every node's ORB; returns the Observability hub."""
        if self.obs is None:
            from repro.obs import Observability
            self.obs = Observability(self.env, self.metrics)
            self.obs.install_fleet(self.nodes)
        return self.obs

    def node(self, host_id: str) -> Node:
        return self.nodes[host_id]

    def run(self, until=None):
        return self.env.run(until=until)

    def run_process(self, generator):
        """Drive *generator* as a process to completion synchronously."""
        return self.env.run(until=self.env.process(generator))


def star_rig(n_leaves: int = 3, seed: int = 0, **star_kwargs) -> SimRig:
    """A hub-and-leaves rig, the workhorse of the test suite."""
    return SimRig(star(n_leaves, **star_kwargs), seed=seed)

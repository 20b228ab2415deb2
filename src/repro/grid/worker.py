"""Monte-Carlo π: the reproduction's data-parallel workload.

An aggregatable component (§2.1.1): ``split`` shards the sample budget,
each shard is processed by a ``Worker`` facet that charges simulated
CPU in proportion to the samples drawn, and ``merge`` turns hit counts
into the π estimate.  Used by the aggregation coordinator (one-shot
scatter/gather) and the volunteer master (churn-tolerant farming).
"""

from __future__ import annotations

import numpy as np

from repro.components.executor import ComponentExecutor, StatefulMixin
from repro.sim.rng import derived_stream
from repro.container.aggregation import (
    WORKER_IFACE,
    dumps_shard,
    loads_shard,
)
from repro.orb.core import Servant
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

#: Simulated work units per 1000 samples.
COST_PER_KSAMPLE = 1.0


def count_hits(samples: int, seed: int) -> int:
    """How many of *samples* uniform points land inside the unit circle."""
    rng = derived_stream("grid.count_hits", seed)
    xs = rng.random(samples)
    ys = rng.random(samples)
    return int(np.count_nonzero(xs * xs + ys * ys <= 1.0))


class _PiWorkerFacet(Servant):
    _interface = WORKER_IFACE

    def __init__(self, executor: "MonteCarloPiExecutor") -> None:
        self._executor = executor

    def process_shard(self, shard: bytes):
        work = loads_shard(shard)
        samples = int(work["samples"])
        seed = int(work["seed"])
        ctx = self._executor.context
        if ctx is not None and samples > 0:
            yield ctx.charge_cpu(COST_PER_KSAMPLE * samples / 1000.0)
        hits = count_hits(samples, seed)
        self._executor.processed_samples += samples
        return dumps_shard({"samples": samples, "hits": hits})


class MonteCarloPiExecutor(StatefulMixin, ComponentExecutor):
    """Splittable π estimator."""

    STATE_ATTRS = ("total_samples", "base_seed")

    def __init__(self) -> None:
        super().__init__()
        self.total_samples = 0
        self.base_seed = 0
        self.processed_samples = 0

    def create_facet(self, port_name: str) -> Servant:
        assert port_name == "work"
        return _PiWorkerFacet(self)

    # -- aggregation hooks ------------------------------------------------
    def split(self, n_ways: int) -> list[dict]:
        base, extra = divmod(self.total_samples, n_ways)
        shards = []
        for i in range(n_ways):
            shards.append({
                "samples": base + (1 if i < extra else 0),
                "seed": self.base_seed + i,
            })
        return shards

    def merge(self, partials: list) -> float:
        samples = sum(p["samples"] for p in partials)
        hits = sum(p["hits"] for p in partials)
        if samples == 0:
            return float("nan")
        return 4.0 * hits / samples

    @staticmethod
    def merge_values(partials: list) -> float:
        """Merge without an executor instance (volunteer master path)."""
        return MonteCarloPiExecutor().merge(partials)


def montecarlo_package() -> ComponentPackage:
    entry = "grid.montecarlo"
    GLOBAL_BINARIES.register(entry, MonteCarloPiExecutor)
    soft = SoftwareDescriptor(
        name="MonteCarloPi", version=Version.parse("1.0.0"), vendor="grid",
        abstract="Data-parallel Monte-Carlo pi estimator.",
        mobility="mobile", replication="stateless",
        aggregation="data-parallel",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/mcpi")],
    )
    comp = ComponentTypeDescriptor(
        name="MonteCarloPi",
        provides=[PortDecl("work", WORKER_IFACE.repo_id)],
        qos=QoSSpec(cpu_units=50.0, memory_mb=16.0),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_binary("bin/any/mcpi", synthetic_payload(10_000, seed=31))
    return ComponentPackage(builder.build())

"""SumWorker: a data-parallel (aggregatable) component, the fixture of
the aggregation tests."""

from __future__ import annotations

from repro.components.executor import ComponentExecutor, StatefulMixin
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


class _SumWorkerFacet(Servant):
    _interface = WORKER_IFACE

    def __init__(self, executor: "SumWorkerExecutor") -> None:
        self._executor = executor

    def process_shard(self, shard: bytes):
        work = loads_shard(shard)
        lo, hi = work["lo"], work["hi"]
        cost = work.get("cost_per_item", 0.01) * (hi - lo)
        # Charge real simulated CPU time for the work, then answer.
        ctx = self._executor.context
        if ctx is not None and cost > 0:
            yield ctx.charge_cpu(cost)
        return dumps_shard(sum(range(lo, hi)))


class SumWorkerExecutor(StatefulMixin, ComponentExecutor):
    """Sums an integer range; split()s it into contiguous shards."""

    STATE_ATTRS = ("lo", "hi", "cost_per_item")

    def __init__(self) -> None:
        super().__init__()
        self.lo = 0
        self.hi = 0
        self.cost_per_item = 0.01

    def create_facet(self, port_name: str) -> Servant:
        assert port_name == "work"
        return _SumWorkerFacet(self)

    def split(self, n_ways: int) -> list[dict]:
        total = self.hi - self.lo
        base, extra = divmod(total, n_ways)
        shards = []
        start = self.lo
        for i in range(n_ways):
            size = base + (1 if i < extra else 0)
            shards.append({"lo": start, "hi": start + size,
                           "cost_per_item": self.cost_per_item})
            start += size
        return shards

    def merge(self, partials: list) -> int:
        return sum(partials)


def sum_worker_package() -> ComponentPackage:
    entry = "demo.sumworker"
    GLOBAL_BINARIES.register(entry, SumWorkerExecutor)
    soft = SoftwareDescriptor(
        name="SumWorker", version=Version.parse("1.0.0"), vendor="repro-demo",
        abstract="Data-parallel range summer.",
        replication="stateless", aggregation="data-parallel",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/sumworker")],
    )
    comp = ComponentTypeDescriptor(
        name="SumWorker",
        provides=[PortDecl("work", WORKER_IFACE.repo_id)],
        qos=QoSSpec(cpu_units=10.0, memory_mb=8.0),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_binary("bin/any/sumworker",
                       synthetic_payload(4_000, seed=12))
    return ComponentPackage(builder.build())

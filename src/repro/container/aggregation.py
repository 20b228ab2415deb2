"""Data-parallel aggregation (§2.1.1).

An aggregatable component "knows how to split itself in different
instances to process a set of data (data-parallel components) and how
to gather partial results into a complete solution".  The coordinator:

1. asks a local prototype executor to :meth:`split` the work;
2. creates worker instances on the chosen hosts (shipping the package
   where needed);
3. pushes one shard to each worker's ``Worker`` facet, in parallel;
4. :meth:`merge`-s the partial results.

Aggregatable components must provide a facet implementing
:data:`WORKER_IFACE` (``process_shard``).
"""

from __future__ import annotations

import pickle

from repro.components.reflection import InstanceInfo
from repro.container.agent import dumps_state
from repro.orb.core import InterfaceDef, op
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.orb.typecodes import tc_octetseq
from repro.sim.kernel import Event
from repro.util.errors import ReproError

WORKER_IFACE = InterfaceDef(
    "IDL:corbalc/Framework/Worker:1.0",
    "Worker",
    operations=[
        # Work cost is charged by the executor itself (charge_cpu), not
        # by the dispatch, so heterogeneous hosts show real speed ratios.
        op("process_shard", [("shard", tc_octetseq)], tc_octetseq,
           cpu_cost=0.5),
    ],
)


class AggregationError(ReproError):
    """Aggregation refused (component not data-parallel) or failed."""


def dumps_shard(shard) -> bytes:
    """Wire form of a work shard / partial result."""
    return pickle.dumps(shard, protocol=4)


def loads_shard(data: bytes):
    return pickle.loads(data)


class AggregationCoordinator:
    """Splits, scatters, gathers one data-parallel computation."""

    def __init__(self, node) -> None:
        self.node = node

    def run(self, component_name: str, worker_hosts: list[str],
            work_state: dict) -> Event:
        """Execute the component's work across *worker_hosts*.

        Returns a process event yielding the merged result.  Workers
        that die mid-shard have their shard re-run on a surviving host,
        so one crash does not lose the computation.
        """
        return self.node.env.process(
            self._run(component_name, worker_hosts, work_state))

    def _run(self, component_name: str, worker_hosts: list[str],
             work_state: dict):
        if not worker_hosts:
            raise AggregationError("no worker hosts")
        node = self.node
        cls = node.repository.lookup(component_name)
        if not cls.aggregatable:
            raise AggregationError(
                f"component {component_name!r} is not data-parallel"
            )
        prototype = cls.new_executor()
        prototype.set_state(work_state)
        shards = prototype.split(len(worker_hosts))
        if len(shards) != len(worker_hosts):
            raise AggregationError(
                f"split() returned {len(shards)} shards for "
                f"{len(worker_hosts)} workers"
            )

        # Create one worker instance per host (install where missing).
        exact = f"=={cls.version}"
        workers: list[tuple[str, IOR, str]] = []  # (host, facet, iid)
        for host in worker_hosts:
            if host != node.host_id:
                acceptor = node.service_stub(host, "acceptor")
                if not (yield acceptor.is_installed(component_name, exact)):
                    yield acceptor.install(
                        node.repository.package_bytes(component_name))
            agent = node.service_stub(host, "container")
            info = InstanceInfo.from_value(
                (yield agent.create_instance(component_name, exact, "")))
            facet = self._worker_facet(info)
            workers.append((host, facet, info.instance_id))

        # Scatter all shards in parallel; index results by shard.
        process_op = WORKER_IFACE.operations["process_shard"]
        calls = []
        for (host, facet, _iid), shard in zip(workers, shards):
            calls.append(node.orb.invoke(
                facet, process_op, (dumps_shard(shard),),
                timeout=None))
        partials: list = [None] * len(calls)
        failed: list[int] = []
        for index, call in enumerate(calls):
            try:
                raw = yield call
                partials[index] = loads_shard(raw)
            except SystemException:
                failed.append(index)

        # Re-run failed shards on surviving workers, round-robin.
        if failed:
            node.metrics.counter("aggregation.reruns").inc(len(failed))
            survivors = [
                w for i, w in enumerate(workers)
                if i not in failed
                and node.network.topology.host(w[0]).alive  # simlint: disable=SIM040 -- ROADMAP 24
            ]
            if not survivors:
                raise AggregationError("all workers failed")
            for j, index in enumerate(failed):
                host, facet, _iid = survivors[j % len(survivors)]
                raw = yield node.orb.invoke(
                    facet, process_op, (dumps_shard(shards[index]),))
                partials[index] = loads_shard(raw)

        # Tear down workers that are still reachable.
        for host, _facet, iid in workers:
            if node.network.topology.host(host).alive:  # simlint: disable=SIM040 -- ROADMAP 24
                agent = node.service_stub(host, "container")
                try:
                    yield agent.destroy_instance(iid)
                except SystemException:
                    pass
        node.metrics.counter("aggregation.runs").inc()
        return prototype.merge(partials)

    def _worker_facet(self, info: InstanceInfo) -> IOR:
        for port in info.ports:
            if port.kind != "facet":
                continue
            if port.type_id == WORKER_IFACE.repo_id and port.peer:
                return IOR.from_string(port.peer)
        raise AggregationError(
            f"instance {info.instance_id} exposes no Worker facet"
        )

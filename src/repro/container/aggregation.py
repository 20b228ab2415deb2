"""Data-parallel aggregation (§2.1.1).

An aggregatable component "knows how to split itself in different
instances to process a set of data (data-parallel components) and how
to gather partial results into a complete solution".  The coordinator:

1. asks a local prototype executor to :meth:`split` the work;
2. creates one worker per host, in order, with
   :func:`~repro.container.agent.place_instance`; a host whose
   placement fails is lost, and its shard waits for step 4;
3. pushes one shard to each placed worker's ``Worker`` facet, in
   parallel;
4. re-runs each failed shard round-robin on the workers whose calls
   succeeded, dropping any whose re-run call fails too;
5. destroys the workers that never failed a call, and :meth:`merge`-s.

Aggregatable components must provide a facet implementing
:data:`WORKER_IFACE` (``process_shard``).
"""

from __future__ import annotations

import pickle

from repro.components.reflection import InstanceInfo
from repro.container.agent import PROBE_TIMEOUT, place_instance
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
_PROCESS = WORKER_IFACE.operations["process_shard"]


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

        Returns a process event yielding the merged result, or failing
        with :class:`AggregationError` once no worker's calls succeed.
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

        # (shard index, host, facet, instance id) per placed worker.  A
        # host whose placement call fails is lost before it has one, and
        # its shard joins the re-run queue.
        workers: list[tuple[int, str, IOR, str]] = []
        failed: list[int] = []
        for index, host in enumerate(worker_hosts):
            try:
                info = yield from place_instance(node, host, cls)
            except SystemException:
                failed.append(index)
                continue
            workers.append((index, host, worker_facet(info),
                            info.instance_id))
        if not workers:
            raise AggregationError("all workers failed")

        # Scatter the placed workers' shards in parallel.
        calls = [node.orb.invoke(facet, _PROCESS,
                                 (dumps_shard(shards[index]),), timeout=None)
                 for index, _host, facet, _iid in workers]
        partials: list = [None] * len(shards)
        lost: set[str] = set()
        for (index, _host, _facet, iid), call in zip(workers, calls):
            try:
                partials[index] = loads_shard((yield call))
            except SystemException:
                failed.append(index)
                lost.add(iid)

        # Call outcomes are the only liveness source: a worker whose call
        # failed is lost, and its shard goes round-robin to the rest.
        if failed:
            node.metrics.counter("aggregation.reruns").inc(len(failed))
        turn = 0
        while failed:
            survivors = [w for w in workers if w[3] not in lost]
            if not survivors:
                raise AggregationError("all workers failed")
            _index, _host, facet, iid = survivors[turn % len(survivors)]
            try:
                raw = yield node.orb.invoke(
                    facet, _PROCESS, (dumps_shard(shards[failed[0]]),))
            except SystemException:
                lost.add(iid)
                continue
            partials[failed.pop(0)] = loads_shard(raw)
            turn += 1

        # A lost worker is not called again.
        for _index, host, _facet, iid in workers:
            if iid in lost:
                continue
            agent = node.service_stub(host, "container")
            try:
                yield agent.destroy_instance(iid, _timeout=PROBE_TIMEOUT)
            except SystemException:
                pass
        node.metrics.counter("aggregation.runs").inc()
        return prototype.merge(partials)


def worker_facet(info: InstanceInfo) -> IOR:
    """The ``Worker`` facet of a freshly created worker instance."""
    for port in info.ports:
        if (port.kind == "facet" and port.type_id == WORKER_IFACE.repo_id
                and port.peer):
            return IOR.from_string(port.peer)
    raise AggregationError(
        f"instance {info.instance_id} exposes no Worker facet"
    )

"""event_fanout — the C17 bus arm at length.

One publisher, ``EventBus.batch_subscribe`` -> ``FanoutForwarder``
(``push_batch``, marshalled once) -> 8 remote sinks over a star with
GIOP pipelining; 64 events per 10 ms sim tick.  Open loop in simulated
time: the schedule does not wait for delivery (the generator runs
inside the simulation, so its lateness is zero by construction).  Op =
one delivery; sim latency = publish tick -> sink receipt.  Chosen
because ``repro.events`` + MSG_MULTI pipelining + marshal-once fan-out
do the work and the request/reply path, registry and obs do none: it
is the *throughput* use of the event layer where ``cscw_session`` is
the *latency* use, so a batching gain that costs per-event latency
shows on the other workload.
"""

from __future__ import annotations

from repro.events.bus import EventBus
from repro.events.remote import (
    EVENT_SINK_IFACE,
    FanoutForwarder,
    sink_batch_args,
)
from repro.orb.core import ORB, Servant
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry, derived_stream
from repro.sim.topology import star

from spine.measure import N_CHUNKS
from spine.workloads import Workload

N_SINKS = 8
BURST = 64                   # events published per sim tick
TICK = 0.01
MAX_BATCH = 64               # one full size-flush per tick
PIPELINE_WINDOW = 2 * TICK   # consecutive flushes per sink coalesce
TOPIC = "spine.fanout"
PUSH_BATCH = EVENT_SINK_IFACE.operations["push_batch"]
#: distinct bursts of payloads, cycled tick by tick.
CYCLE = 64

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


def make_bursts(seed: int) -> list:
    """``CYCLE`` bursts of ``BURST`` payload strings, 4-24 chars each."""
    rng = derived_stream("spine.event_fanout", seed)
    bursts = []
    for _ in range(CYCLE):
        burst = []
        for _ in range(BURST):
            n = int(rng.integers(4, 25))
            picks = rng.integers(0, len(_ALPHABET), n)
            burst.append("".join(_ALPHABET[int(p)] for p in picks))
        bursts.append(burst)
    return bursts


class CheckingSink(Servant):
    """Counts, checks order against the published bursts, and records
    receive sim-time instead of storing payloads."""

    _interface = EVENT_SINK_IFACE

    def __init__(self, workload: "EventFanout") -> None:
        self.w = workload
        self.received = 0
        self.out_of_order = 0

    def push_batch(self, topics: list, data: list) -> None:
        w = self.w
        now = w.env.now
        seq = self.received
        offset = 0
        total = len(data)
        while offset < total:
            tick, within = divmod(seq, BURST)
            take = min(BURST - within, total - offset)
            expected = w.bursts[tick % CYCLE]
            if take == total == BURST:
                got = data          # the common shape: one whole tick
            else:
                got = data[offset:offset + take]
                expected = expected[within:within + take]
            if got != expected or tick >= len(w.publish_times):
                self.out_of_order += 1
            elif w.recording:
                w.latencies.append((now - w.publish_times[tick], take))
            seq += take
            offset += take
        self.received = seq


class EventFanout(Workload):
    name = "event_fanout"
    rate = 700_000.0               # deliveries per wall-second
    multiple = BURST * N_SINKS     # whole ticks per chunk
    marshal_once = ("push_batch",)

    def setup(self) -> None:
        self.bursts = make_bursts(self.seed)
        env = Environment()
        net = Network(env, self.topology(), rngs=RngRegistry(self.seed))
        self.publisher = ORB(env, net, "hub",
                             pipeline_window=PIPELINE_WINDOW)
        self.sinks = []
        iors = []
        for k in range(N_SINKS):
            orb = ORB(env, net, f"h{k}")
            sink = CheckingSink(self)
            iors.append(orb.adapter("sink").activate(sink))
            self.sinks.append(sink)
        self.bus = EventBus(env, net.metrics)
        forwarder = FanoutForwarder(self.publisher, iors, PUSH_BATCH,
                                    to_args=sink_batch_args)
        self.bus.batch_subscribe(TOPIC, forwarder.deliver,
                                 max_batch=MAX_BATCH, max_age=2 * TICK)
        #: sim time each tick was published at, by tick number.
        self.publish_times: list = []
        self.recording = False
        self.attach(env, net)

    @staticmethod
    def topology():
        return star(N_SINKS)

    @staticmethod
    def operations() -> dict:
        return {"push_batch": PUSH_BATCH}

    # -- driving -----------------------------------------------------------
    def _publisher(self, ticks: int):
        env = self.env
        bus = self.bus
        for _ in range(ticks):
            tick = len(self.publish_times)
            self.publish_times.append(env.now)
            for payload in self.bursts[tick % CYCLE]:
                bus.publish(TOPIC, payload)
            yield env.timeout(TICK)

    def _run_until(self, when: float) -> None:
        tracer = self.tracer
        if tracer.on:
            with tracer.span("driver|env.run"):
                self.env.run(until=when)
        else:
            self.env.run(until=when)

    def _drain(self) -> None:
        """Flush what the age timers still hold and let it land."""
        self.bus.flush()
        self.publisher.flush_pipelines()
        target = len(self.publish_times) * BURST
        deadline = self.env.now + 5.0
        while (min(s.received for s in self.sinks) < target
               and self.env.now < deadline):
            self._run_until(self.env.now + TICK)

    def _ticks(self, deliveries: int) -> int:
        return deliveries // (BURST * N_SINKS)

    def warmup(self) -> None:
        ticks = self._ticks(self.warm_ops)
        self.env.process(self._publisher(ticks))
        self.env.run(until=self.env.now + ticks * TICK)
        self._drain()

    def run(self, window) -> None:
        env = self.env
        ticks = self._ticks(self.ops)
        per_chunk = ticks // N_CHUNKS
        self.recording = True
        self.attempted = self.ops
        window.begin()
        start = env.now
        env.process(self._publisher(ticks))
        for c in range(N_CHUNKS):
            self._run_until(start + (c + 1) * per_chunk * TICK)
            window.chunk_done()
        self._drain()
        window.finish()
        self.recording = False
        delivered = sum(weight for _lat, weight in self.latencies)
        self.failed = self.ops - delivered

    def verify(self) -> list:
        problems = []
        target = len(self.publish_times) * BURST
        for k, sink in enumerate(self.sinks):
            if sink.received != target:
                problems.append(f"sink {k} received {sink.received} of "
                                f"{target} events")
            if sink.out_of_order:
                problems.append(f"sink {k} saw {sink.out_of_order} "
                                "out-of-order batches")
        dropped = self.metrics.get("bus.dropped")
        if dropped:
            problems.append(f"bus dropped {dropped:.0f} events")
        return problems

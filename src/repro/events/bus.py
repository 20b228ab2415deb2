"""In-process pub/sub event bus with batched delivery.

Publishers hand an event to a topic and return immediately; each
subscription *is* a :class:`~repro.events.batch_writer.BatchWriter`
window, flushed to its handler by size or age — the shape a remote
forwarder uses so many logical messages ride one wire transmission
(see :mod:`repro.events.remote` and the ORB's GIOP pipelining
underneath).  Topics are matched exactly.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.events.batch_writer import BatchWriter
from repro.obs import names
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry
from repro.util.errors import ConfigurationError


class Event:
    """One published occurrence: payload plus bus-stamped metadata."""

    __slots__ = ("topic", "payload", "time", "seq")

    def __init__(self, topic: str, payload, time: float, seq: int) -> None:
        self.topic = topic
        self.payload = payload
        self.time = time
        self.seq = seq

    def __repr__(self) -> str:
        return (f"Event({self.topic!r}, {self.payload!r}, "
                f"t={self.time}, seq={self.seq})")


class EventBus:
    """Topic-routed fan-out with per-subscriber buffering."""

    def __init__(self, env: Environment,
                 metrics: Optional[MetricRegistry] = None) -> None:
        self.env = env
        self.metrics = metrics or MetricRegistry()
        self._seq = 0
        #: topic -> the windows subscribed to it
        self._topics: dict[str, list[BatchWriter]] = {}
        self._ctr_published = self.metrics.counter(names.BUS_PUBLISHED)
        self._ctr_delivered = self.metrics.counter(names.BUS_DELIVERED)

    def batch_subscribe(self, topic: str, flush: Callable,
                        max_batch: int = 64,
                        max_age: float = 0.05) -> BatchWriter:
        """Batched delivery: *flush(list-of-events)* on size/age windows."""
        if not topic:
            raise ConfigurationError("empty topic")
        writer = BatchWriter(self.env, flush, max_batch, max_age,
                             self.metrics)
        self._topics.setdefault(topic, []).append(writer)
        return writer

    def publish(self, topic: str, payload) -> Event:
        """Hand one event to every subscriber of *topic*; never blocks."""
        self._seq += 1
        event = Event(topic, payload, self.env._now, self._seq)
        self._ctr_published.value += 1
        writers = self._topics.get(topic, ())
        for writer in writers:
            writer.append(event)
        self._ctr_delivered.value += len(writers)
        return event

    def flush(self) -> None:
        """Force every subscription to deliver now."""
        for writers in self._topics.values():
            for writer in writers:
                writer.flush()

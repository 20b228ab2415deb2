"""In-process pub/sub event bus with batched, decoupled delivery.

The bus is per-node infrastructure (like the ORB): publishers hand an
event to a topic and return immediately; each subscription *is* a
:class:`~repro.events.batch_writer.BatchWriter` window, flushed to its
handler by size or age — the shape remote forwarders use so many
logical messages ride one wire transmission (see
:mod:`repro.events.remote` and the ORB's GIOP pipelining underneath).

A handler that needs simulated time (a remote send) is a generator and
runs as its own process, so a slow subscriber never blocks the
publisher or its sibling subscribers.

Topics are dot-separated names matched exactly, plus trailing-wildcard
patterns: a subscription to ``"federation.*"`` receives every topic
beginning ``"federation."``, and ``"*"`` receives everything.
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


class Subscription:
    """One subscriber's attachment: pattern + its private flush window."""

    __slots__ = ("bus", "pattern", "_writer", "delivered")

    def __init__(self, bus: "EventBus", pattern: str,
                 writer: BatchWriter) -> None:
        self.bus = bus
        self.pattern = pattern
        self._writer = writer
        self.delivered = 0         # events accepted into this window

    @property
    def pending(self) -> int:
        return self._writer.pending

    def _deliver(self, event: Event) -> None:
        self.delivered += 1
        self._writer.append(event)

    def flush(self) -> None:
        """Deliver the buffered window now."""
        self._writer.flush()

    def clear(self) -> None:
        """Drop buffered, undelivered events (crash semantics)."""
        self._writer.clear()

    def cancel(self) -> None:
        self.bus.unsubscribe(self)


class EventBus:
    """Topic-routed fan-out with per-subscriber buffering."""

    def __init__(self, env: Environment,
                 metrics: Optional[MetricRegistry] = None) -> None:
        self.env = env
        self.metrics = metrics or MetricRegistry()
        self._seq = 0
        #: exact topic -> subscriptions
        self._topics: dict[str, list[Subscription]] = {}
        #: ("prefix.", sub) for trailing-wildcard patterns ("" matches all)
        self._wildcards: list[tuple[str, Subscription]] = []
        self._ctr_published = self.metrics.counter(names.BUS_PUBLISHED)
        self._ctr_delivered = self.metrics.counter(names.BUS_DELIVERED)
        self._ctr_no_subscriber = self.metrics.counter(names.BUS_NO_SUBSCRIBER)

    # -- subscribing -----------------------------------------------------
    def batch_subscribe(self, pattern: str, flush: Callable,
                        max_batch: int = 64,
                        max_age: float = 0.05) -> Subscription:
        """Batched delivery: *flush(list-of-events)* on size/age windows."""
        if not pattern:
            raise ConfigurationError("empty topic pattern")
        writer = BatchWriter(self.env, flush, max_batch=max_batch,
                             max_age=max_age, metrics=self.metrics,
                             name="bus")
        sub = Subscription(self, pattern, writer)
        if pattern.endswith("*"):
            prefix = pattern[:-1]
            if prefix and not prefix.endswith("."):
                raise ConfigurationError(
                    f"wildcard pattern must end '.*' or be '*': {pattern!r}")
            self._wildcards.append((prefix, sub))
        else:
            self._topics.setdefault(pattern, []).append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        subs = self._topics.get(sub.pattern)
        if subs is not None and sub in subs:
            subs.remove(sub)
            if not subs:
                del self._topics[sub.pattern]
        self._wildcards = [(p, s) for p, s in self._wildcards if s is not sub]
        sub.clear()

    # -- publishing ------------------------------------------------------
    def publish(self, topic: str, payload=None) -> Event:
        """Hand one event to every matching subscriber; never blocks."""
        self._seq += 1
        event = Event(topic, payload, self.env._now, self._seq)
        self._ctr_published.value += 1
        matched = False
        subs = self._topics.get(topic)
        if subs:
            matched = True
            for sub in tuple(subs):
                sub._deliver(event)
                self._ctr_delivered.value += 1
        for prefix, sub in self._wildcards:
            if topic.startswith(prefix):
                matched = True
                sub._deliver(event)
                self._ctr_delivered.value += 1
        if not matched:
            self._ctr_no_subscriber.value += 1
        return event

    # -- maintenance -----------------------------------------------------
    def flush(self) -> None:
        """Force every subscription to deliver now."""
        for subs in self._topics.values():
            for sub in subs:
                sub.flush()
        for _prefix, sub in self._wildcards:
            sub.flush()

    def subscriptions(self) -> list[Subscription]:
        out = [s for subs in self._topics.values() for s in subs]
        out.extend(s for _p, s in self._wildcards)
        return out

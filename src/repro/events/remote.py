"""Remote delivery of bus events as batched oneway calls.

A :class:`FanoutForwarder` is the flush target that turns a batched bus
subscription into wire traffic: each flush marshals the whole batch
**once** (``to_args`` maps the event list to the operation's argument
tuple) and sends it as one oneway frame per destination.  Stacked on
the ORB's GIOP pipelining, consecutive flushes to the same destination
coalesce further into multi-request transmissions — the two layers
together are what turn N logical events into ~1 link charge per sink.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.obs import names
from repro.orb.core import InterfaceDef, ORB, OperationDef, Servant, op
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.orb.typecodes import sequence_tc, tc_string

#: Generic remote event sink: the string-payload counterpart of a CORBA
#: notification channel's push consumer, with a batched variant so one
#: call (and one wire transmission, under pipelining) can carry a whole
#: flush window.
EVENT_SINK_IFACE = InterfaceDef(
    "IDL:corbalc/Events/EventSink:1.0",
    "EventSink",
    operations=[
        op("push", [("topic", tc_string), ("data", tc_string)],
           oneway=True),
        op("push_batch", [("topics", sequence_tc(tc_string)),
                          ("data", sequence_tc(tc_string))],
           oneway=True),
    ],
)


class EventSinkServant(Servant):
    """Collects pushed events in arrival order (tests and benchmarks)."""

    _interface = EVENT_SINK_IFACE

    def __init__(self) -> None:
        self.received: list[tuple[str, str]] = []

    def push(self, topic: str, data: str) -> None:
        self.received.append((topic, data))

    def push_batch(self, topics: list, data: list) -> None:
        self.received.extend(zip(topics, data))


def sink_batch_args(events) -> tuple:
    """``to_args`` mapping bus events onto ``push_batch`` arguments."""
    topics = []
    data = []
    for event in events:
        topics.append(event.topic)
        data.append(event.payload)
    return (topics, data)


class FanoutForwarder:
    """Flush callback replicating event batches to many sinks.

    One batched subscription feeding N destinations through
    :meth:`~repro.orb.core.ORB.send_oneway_fanout`: the batch arguments
    are marshalled once and every sink gets its own frame — one
    buffer, one age timer and one encoding of the batch body however
    many sinks there are.  Fan-out is all-or-nothing per flush.
    """

    __slots__ = ("orb", "iors", "odef", "to_args", "meter",
                 "_ctr_batches", "_ctr_events", "_ctr_errors")

    def __init__(self, orb: ORB, iors: Sequence[IOR], odef: OperationDef,
                 to_args: Callable[[Sequence], tuple],
                 meter: Optional[str] = None) -> None:
        self.orb = orb
        self.iors = list(iors)
        self.odef = odef
        self.to_args = to_args
        self.meter = meter
        metrics = orb.metrics
        self._ctr_batches = metrics.counter(names.BUS_REMOTE_BATCHES)
        self._ctr_events = metrics.counter(names.BUS_REMOTE_EVENTS)
        self._ctr_errors = metrics.counter(names.BUS_REMOTE_ERRORS)

    def retarget(self, iors: Sequence[IOR]) -> None:
        """Re-aim the fan-out at a new sink set.

        Gossip-style users re-pick destinations per flush (each round
        samples a fresh peer set); the subscription and its buffer stay
        in place, only the addressing changes.
        """
        self.iors = list(iors)

    def deliver(self, events: Sequence) -> bool:
        """Send one batch to every sink; True if handed to the wire."""
        if not self.iors:
            return False
        try:
            self.orb.send_oneway_fanout(self.iors, self.odef,
                                        self.to_args(events),
                                        meter=self.meter)
        except SystemException:
            self._ctr_errors.value += 1
            return False
        self._ctr_batches.value += len(self.iors)
        self._ctr_events.value += len(events) * len(self.iors)
        return True

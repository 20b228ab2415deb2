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

from typing import Callable, Sequence

from repro.obs import names
from repro.orb.core import InterfaceDef, ORB, OperationDef, Servant, op
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.orb.typecodes import sequence_tc, tc_string

#: Generic remote event sink: the string-payload counterpart of a CORBA
#: notification channel's push consumer, with a batched variant so one
#: call (and one wire transmission, under pipelining) can carry a whole
#: flush window.  A batch names its topic once: every window the bus
#: flushes belongs to one subscription and topics match exactly, so all
#: of its events share that topic (a CORBA event channel, too, is named
#: once, not on every event).
EVENT_SINK_IFACE = InterfaceDef(
    "IDL:corbalc/Events/EventSink:1.0",
    "EventSink",
    operations=[
        op("push", [("topic", tc_string), ("data", tc_string)],
           oneway=True),
        op("push_batch", [("topic", tc_string),
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

    def push_batch(self, topic: str, data: list) -> None:
        self.received.extend((topic, d) for d in data)


def sink_batch_args(events) -> tuple:
    """``to_args`` mapping bus events onto ``push_batch`` arguments.

    A flushed window is never empty and holds one subscription's topic
    only (the bus's exact-match invariant), so the first event names it.
    """
    return (events[0].topic, [event.payload for event in events])


class FanoutForwarder:
    """Flush callback replicating event batches to many sinks.

    One batched subscription feeding N destinations through
    :meth:`~repro.orb.core.ORB.send_oneway_fanout`: the batch arguments
    are marshalled once and every sink gets its own frame — one
    buffer, one age timer and one encoding of the batch body however
    many sinks there are.  Fan-out is all-or-nothing per flush.
    """

    __slots__ = ("orb", "iors", "odef", "to_args",
                 "_ctr_batches", "_ctr_events", "_ctr_errors")

    def __init__(self, orb: ORB, iors: Sequence[IOR], odef: OperationDef,
                 to_args: Callable[[Sequence], tuple]) -> None:
        self.orb = orb
        self.iors = list(iors)
        self.odef = odef
        self.to_args = to_args
        metrics = orb.metrics
        self._ctr_batches = metrics.counter(names.BUS_REMOTE_BATCHES)
        self._ctr_events = metrics.counter(names.BUS_REMOTE_EVENTS)
        self._ctr_errors = metrics.counter(names.BUS_REMOTE_ERRORS)

    def deliver(self, events: Sequence) -> None:
        """Send one batch to every sink."""
        try:
            self.orb.send_oneway_fanout(self.iors, self.odef,
                                        self.to_args(events))
        except SystemException:
            self._ctr_errors.value += 1
            return
        self._ctr_batches.value += len(self.iors)
        self._ctr_events.value += len(events) * len(self.iors)

"""Push-model event channels (CosEvents/CosNotification flavour).

One channel exists per event *kind* produced by a component (§2.1.2).
Suppliers push an ``any``; the channel fans it out to every connected
push consumer with oneway calls.  Consumers implement the
``PushConsumer`` interface (a single ``push(any)`` operation).
"""

from __future__ import annotations

from repro.orb.cdr import Any
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM
from repro.orb.ior import IOR
from repro.orb.typecodes import sequence_tc, tc_any, tc_objref, tc_string

PUSH_CONSUMER_IFACE = InterfaceDef(
    "IDL:omg.org/CosEventComm/PushConsumer:1.0",
    "PushConsumer",
    operations=[
        op("push", [("data", tc_any)], oneway=True),
    ],
)

EVENT_CHANNEL_IFACE = InterfaceDef(
    "IDL:omg.org/CosEventChannelAdmin/EventChannel:1.0",
    "EventChannel",
    operations=[
        op("connect_push_consumer", [("consumer", tc_objref)]),
        op("disconnect_push_consumer", [("consumer", tc_objref)]),
        op("push", [("data", tc_any)], oneway=True),
        op("consumer_count", [], result=tc_string),
    ],
)


class EventChannelServant(Servant):
    """Fan-out hub for one event kind."""

    _interface = EVENT_CHANNEL_IFACE

    def __init__(self, orb: ORB) -> None:
        self.orb = orb
        self._consumers: list[IOR] = []
        self.delivered = 0

    def connect_push_consumer(self, consumer) -> None:
        if consumer is None:
            raise BAD_PARAM("nil consumer reference")
        if consumer not in self._consumers:
            self._consumers.append(consumer)

    def disconnect_push_consumer(self, consumer) -> None:
        try:
            self._consumers.remove(consumer)
        except ValueError:
            pass

    def push(self, data) -> None:
        # One fan-out: the event is marshalled once, not per consumer.
        consumers = list(self._consumers)
        if not consumers:
            return
        self.orb.send_oneway_fanout(
            consumers, PUSH_CONSUMER_IFACE.operations["push"], (data,))
        self.delivered += len(consumers)

    def consumer_count(self) -> str:
        # Returned as a string to keep the interface tiny; callers parse.
        return str(len(self._consumers))


class CallbackPushConsumer(Servant):
    """A PushConsumer servant delivering events to a Python callable."""

    _interface = PUSH_CONSUMER_IFACE

    def __init__(self, callback) -> None:
        self._callback = callback

    def push(self, data: Any) -> None:
        self._callback(data)

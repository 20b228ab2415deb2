"""Request interceptors: the hook-order contract and the two info
views the hooks share.  There is no chain class: the hook loops sit
where the request is — client hooks in :class:`~repro.orb.core.ORB`,
server hooks in :class:`~repro.orb.listener.Listener`.
"""

# Portable-interceptor-style hook points around invocation.  The ORB
# calls duck-typed interceptor objects; it does not depend on any
# concrete implementation (repro.obs provides tracing/metrics ones).
#
# Client interceptors: ``send_request(info)`` in registration order
# before the request hits the wire (may add service-context slots),
# then exactly one of ``receive_reply(info)`` / ``receive_exception
# (info)`` in reverse order once the invocation completes (reply,
# user/system exception, timeout, crash — or immediately for oneways).
#
# Server interceptors: ``receive_request(info)`` in registration order
# when a request is admitted, ``finish_request(info)`` in reverse order
# once it is done and its reply sent (whatever the outcome); the
# optional ``child_process(info, proc)`` is called when the servant
# method is a generator that the ORB drives as a nested simulation
# process.  While a servant method is on the stack — and only then —
# its ``info`` is ``ORB.current_request``.

from __future__ import annotations

from typing import Any as TAny
from typing import Optional

from repro.orb import giop
from repro.orb.ior import IOR
from repro.orb.model import OperationDef


class ClientRequestInfo:
    """Mutable view of one outgoing invocation, shared by client
    interceptors across the send/complete hook pair."""

    __slots__ = ("orb", "ior", "odef", "request_id", "oneway", "meter",
                 "service_context", "request_bytes", "reply_bytes",
                 "start", "end", "slots")

    def __init__(self, orb, ior: IOR, odef: OperationDef,
                 request_id: int, meter: Optional[str],
                 oneway: bool) -> None:
        self.orb = orb
        self.ior = ior
        self.odef = odef
        self.request_id = request_id
        self.oneway = oneway
        self.meter = meter
        #: (context_id, context_data) slots interceptors append; framed
        #: into the GIOP request service context in this order.
        self.service_context: list[tuple[int, bytes]] = []
        self.request_bytes = 0
        self.reply_bytes = 0
        self.start = orb.env.now
        self.end: Optional[float] = None
        #: scratch space for interceptors (e.g. the open span).
        self.slots: dict[str, TAny] = {}

    @property
    def operation(self) -> str:
        return self.odef.name

    @property
    def latency(self) -> float:
        return (self.end if self.end is not None else self.orb.env.now) \
            - self.start


class ServerRequestInfo:
    """Mutable view of one inbound dispatch, shared by server
    interceptors across the receive/finish hook pair."""

    __slots__ = ("orb", "request", "client", "service_context",
                 "request_bytes", "reply_bytes", "reply_status",
                 "exception", "start", "end", "slots")

    def __init__(self, orb, request: giop.RequestMessage,
                 client: str, request_bytes: int) -> None:
        self.orb = orb
        self.request = request
        self.client = client
        self.service_context = request.service_context
        self.request_bytes = request_bytes
        self.reply_bytes = 0
        #: GIOP reply status actually sent, or None (oneway / dropped).
        self.reply_status: Optional[int] = None
        self.exception: Optional[BaseException] = None
        self.start = orb.env.now
        self.end: Optional[float] = None
        self.slots: dict[str, TAny] = {}

    @property
    def operation(self) -> str:
        return self.request.operation

    @property
    def latency(self) -> float:
        return (self.end if self.end is not None else self.orb.env.now) \
            - self.start

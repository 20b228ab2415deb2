"""Request interceptors: the hook-order contract and the two info
views the hooks share.  There is no chain class: the hook loops sit
where the request is — client hooks in :class:`~repro.orb.core.ORB`
(completion in ``ClientRequestInfo.settled``), server hooks in
:class:`~repro.orb.listener.Listener`."""

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
# once it is done and its reply sent (whatever the outcome);
# ``child_process(info, proc)`` is called when the servant method is a
# generator that the ORB drives as a nested simulation process.  While
# a servant method is on the stack — and only then — its ``info`` is
# ``ORB.current_request``.
#
# Hooks are bound at registration, not looked up per call: registering
# an interceptor appends its bound methods to one tuple per stage (and
# prepends them to the reverse-order tuples), so a call walks ready
# tuples.  Every hook is optional — an interceptor without one is
# skipped at that stage — and one registered while calls are in flight
# takes part in their completion stages from then on.

from __future__ import annotations

from typing import Optional

from repro.orb import giop
from repro.orb.ior import IOR
from repro.orb.model import OperationDef


def bound_hook(interceptor, name: str) -> tuple:
    """``(interceptor.<name>,)`` as bound now, or ``()`` without it."""
    hook = getattr(interceptor, name, None)
    return () if hook is None else (hook,)


class ClientRequestInfo:
    """Mutable view of one outgoing invocation, shared by client
    interceptors across the send/complete hook pair."""

    __slots__ = ("orb", "ior", "odef", "request_id", "oneway", "meter",
                 "service_context", "request_bytes", "reply_bytes",
                 "start", "end", "span")

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
        self.start = orb.env._now
        self.end: Optional[float] = None
        #: the tracing interceptor's span of this leg, while it is open.
        self.span = None

    @property
    def operation(self) -> str:
        return self.odef.name

    def settled(self, event) -> None:
        """A two-way call's reply-event callback (the first, so the
        completion hooks run before the waiting process resumes)."""
        self.end = event.env._now
        if event._ok:
            for hook in self.orb._client_hooks[1]:
                hook(self)
        else:
            for hook in self.orb._client_hooks[2]:
                hook(self, event._value)


class ServerRequestInfo:
    """Mutable view of one inbound dispatch, shared by server
    interceptors across the receive/finish hook pair."""

    __slots__ = ("orb", "request", "client", "service_context",
                 "request_bytes", "reply_bytes", "reply_status",
                 "exception", "start", "end", "span", "odef")

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
        self.start = orb.env._now
        self.end: Optional[float] = None
        #: the tracing interceptor's span of this leg, while it is open.
        self.span = None
        #: the target's definition of the operation, once the dispatch
        #: has found it; None while (or because) it has not.
        self.odef: Optional[OperationDef] = None

    @property
    def operation(self) -> str:
        return self.request.operation

"""The server side of an ORB: from a delivered message to a sent reply.

One :class:`Listener` per ORB is bound to the host's ``giop`` port.  A
request meets its stages in order: :meth:`Listener.on_message` (decode,
MSG_MULTI unpack; a reply goes straight to the requester),
:meth:`Listener.admit` (shed or count in), :meth:`Listener.dispatch`
and :meth:`Listener.reply`.  A request from this ORB's own requester
skips the first stage — it was never framed — and enters at ``admit``;
its reply is settled by ``reply`` instead of sent.

Every request takes one dispatch path: decoded in the delivery
callback, granted a worker slot if the ORB has them, charged its CPU
cost off one timeout, run.  A servant method may return a plain value
or a generator; a generator is driven as a simulation process, which
lets servants make nested remote calls or sleep for simulated time
while serving.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.obs import names
from repro.orb import giop
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.compiled import get_plan
from repro.orb.exceptions import (
    BAD_OPERATION,
    COMPLETED_NO,
    INTERNAL,
    MINOR_SHED,
    NO_IMPLEMENT,
    OBJECT_NOT_EXIST,
    TRANSIENT,
    UNKNOWN,
    SystemException,
    UserException,
)
from repro.orb.interception import ServerRequestInfo
from repro.orb.model import OperationDef, exception_class
from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.network import Message, Network
from repro.sim.topology import Host
from repro.util.errors import ConfigurationError


class _ImmediateCtx:
    """Minimal event stand-in for a zero-CPU-cost dispatch, so
    :meth:`Listener._dispatch_finish` has a single (callback-shaped)
    signature whether or not a cost timeout was scheduled."""

    __slots__ = ("_value",)

    def __init__(self, value) -> None:
        self._value = value


class _DispatchSlots:
    """FIFO semaphore bounding concurrent servant execution.

    A host has finite CPU parallelism; when every slot is busy further
    admitted dispatches queue here in arrival order, which is what makes
    overload *visible* (queueing delay, growing inflight count) instead
    of the server pretending to be infinitely parallel.
    """

    __slots__ = ("env", "capacity", "_free", "_waiters", "_values")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"dispatch workers must be >= 1, got {capacity}"
            )
        self.env = env
        self.capacity = capacity
        self._free = capacity
        # Queued grants and the values they will carry, in step.
        self._waiters: deque[Event] = deque()
        self._values: deque = deque()

    def acquire(self, value=None) -> Event:
        """Event that fires with *value* (possibly at once) once a slot
        is held."""
        ev = self.env.event()
        if self._free > 0:
            self._free -= 1
            ev.succeed(value)
        else:
            self._waiters.append(ev)
            self._values.append(value)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(self._values.popleft())
        else:
            self._free += 1

    @property
    def queued(self) -> int:
        return len(self._waiters)


class Listener:
    """Admission, dispatch and reply for one ORB's inbound requests.

    *orb* is the owner: what ``ServerRequestInfo.orb`` names and where
    ``current_request`` lives.  *adapters* and *enc_pool* are its table
    and pool, shared by reference; *complete* settles a decoded reply.
    """

    def __init__(self, orb, env: Environment, network: Network, host: Host,
                 adapters: dict, enc_pool: list[CDREncoder],
                 complete: Callable[[giop.ReplyMessage, int], None],
                 dispatch_workers: Optional[int],
                 dispatch_limit: Optional[int]) -> None:
        if dispatch_limit is not None and dispatch_limit < 1:
            raise ConfigurationError(
                f"dispatch limit must be >= 1, got {dispatch_limit}"
            )
        self.orb = orb
        self.env = env
        self.network = network
        self.host = host
        self.host_id = host.host_id
        self.metrics = network.metrics
        self._adapters = adapters
        self._enc_pool = enc_pool
        self._complete = complete
        self.suspects: dict[str, int] = orb.suspects
        self.heard: dict[str, float] = orb.heard
        #: admission control: max requests admitted and not yet finished
        #: (executing + queued for a worker slot).  ``None`` = unbounded.
        self.dispatch_limit = dispatch_limit
        #: CPU parallelism: servant execution is serialized through this
        #: many worker slots.  ``None`` = infinitely parallel (legacy).
        self._slots = (_DispatchSlots(env, dispatch_workers)
                       if dispatch_workers is not None else None)
        self.inflight = 0
        #: called with cpu-seconds on every dispatch (resource accounting)
        self.dispatch_listeners: list[Callable[[float], None]] = []
        #: called with the inbound dispatch depth on every admit/finish.
        self.dispatch_watchers: list[Callable[[int], None]] = []
        #: server hooks, bound by ``ORB.add_server_interceptor``: one
        #: tuple per stage (``receive_request`` in registration order,
        #: ``finish_request`` reversed, ``child_process``), or None.
        self.hooks: Optional[tuple[tuple, tuple, tuple]] = None
        # Hot-path counters resolved once instead of per call.
        self._ctr_replies = self.metrics.counter(names.ORB_REPLIES)
        self._ctr_dispatches = self.metrics.counter(names.ORB_DISPATCHES)

    # -- encoder pooling ---------------------------------------------------
    def _acquire_encoder(self) -> CDREncoder:
        pool = self._enc_pool
        return pool.pop() if pool else CDREncoder()

    def _release_encoder(self, enc: CDREncoder) -> None:
        # Callers release only after take() or reset(), so the pooled
        # buffer is always empty (reset keeps its capacity, so steady
        # traffic stops reallocating).
        if len(self._enc_pool) < 8:
            self._enc_pool.append(enc)

    # -- message handling --------------------------------------------------
    def on_message(self, msg: Message) -> None:
        self.heard[msg.src] = self.env.now
        if self.suspects:
            self.suspects.pop(msg.src, None)    # heard from: not suspect
        try:
            # decode_message's struct.error wrapper is redundant here:
            # a defended SystemException and anything else a corrupted
            # wire provokes are counted alike — it must never crash the
            # node's message handler.
            decoded = giop._decode_message_body(msg.payload)
        except Exception:
            self.metrics.counter(names.ORB_BAD_MESSAGES).inc()
            return
        kind = type(decoded)
        if kind is giop.ReplyMessage:
            self._complete(decoded, len(msg.payload))
        elif kind is giop.RequestMessage:
            self.admit(decoded, msg.src, len(msg.payload))
        else:
            # Unpack a pipelined transmission: every logical message
            # takes the same admission/dispatch path it would have taken
            # arriving alone, so coalescing can never smuggle a request
            # past the dispatch-table bound.  A corrupted frame is
            # counted and skipped without losing its neighbours.
            for frame in decoded.frames:
                try:
                    sub = giop._decode_message_body(frame)
                except Exception:
                    self.metrics.counter(names.ORB_BAD_MESSAGES).inc()
                    continue
                kind = type(sub)
                if kind is giop.RequestMessage:
                    self.admit(sub, msg.src, len(frame))
                elif kind is giop.ReplyMessage:
                    self._complete(sub, len(frame))
                else:  # no nesting
                    self.metrics.counter(names.ORB_BAD_MESSAGES).inc()

    def admit(self, request: giop.RequestMessage, src: str,
              wire_size: int) -> None:
        """Shed one inbound request or count it in and dispatch it."""
        if (self.dispatch_limit is not None
                and self.inflight >= self.dispatch_limit):
            self.shed(request, src)
            return
        self.inflight += 1
        for watcher in self.dispatch_watchers:
            watcher(self.inflight)
        info = None
        if self.hooks is not None:
            info = ServerRequestInfo(self.orb, request, src, wire_size)
            for hook in self.hooks[0]:
                hook(info)
        self.dispatch(request, src, info)

    def shed(self, request: giop.RequestMessage, client: str) -> None:
        """Load-shed an inbound request: the dispatch table is full.

        The reply is a tiny TRANSIENT (minor = shed) sent without
        running interceptors or touching a worker slot, so a saturated
        node spends almost nothing per rejected call — the property
        that keeps goodput up under overload.  A oneway is shed
        silently (its sender expects no reply) but separately counted:
        bus-driven fan-out floods must stay visible to operators.
        """
        self.metrics.counter(names.ORB_SHED).inc()
        if request.response_expected:
            self.reply_system(client, request, TRANSIENT(
                f"dispatch table full ({self.dispatch_limit}) "
                f"on {self.host_id}",
                minor=MINOR_SHED, completed=COMPLETED_NO,
            ))
        else:
            self.metrics.counter(names.ORB_SHED_ONEWAY).inc()

    # -- dispatch ----------------------------------------------------------
    def dispatch(self, request: giop.RequestMessage, client: str,
                 info: Optional[ServerRequestInfo]) -> None:
        """Serve one admitted request: resolve and decode it here (a
        refusal is answered at once), then charge and run it — after a
        worker slot's grant, which carries the dispatch context, if the
        ORB has slots."""
        odef: Optional[OperationDef] = None
        try:
            method, odef = self._resolve_target(request, info)
            codec = odef._codec or odef.codec()
            dec1 = codec.in1_decode
            if not request.response_expected:
                args = codec.decode_oneway(request.args)
            elif dec1 is not None:
                args = (dec1(CDRDecoder(request.args)),)
            else:
                args = codec.decode_in(CDRDecoder(request.args))
        except Exception as exc:
            self._dispatch_error(request, client, odef, exc, info)
            self._dispatch_done(info)
            return
        ctx = (request, client, odef, method, args, info)
        if self._slots is None:
            self._dispatch_charge(ctx)
        else:
            self._slots.acquire(ctx).callbacks.append(self._dispatch_granted)

    def _dispatch_done(self, info: Optional[ServerRequestInfo]) -> None:
        """Close one admitted request, whatever its outcome: in-flight
        accounting, then ``finish_request`` in reverse order."""
        self.inflight -= 1
        for watcher in self.dispatch_watchers:
            watcher(self.inflight)
        if info is not None:
            info.end = self.env._now
            for hook in self.hooks[1]:
                hook(info)

    def _run_generator(self, gen, info: Optional[ServerRequestInfo]):
        """Start a servant's generator as a process of its own and tell
        the interceptors, so calls it makes find this request."""
        proc = self.env.process(gen)
        if info is not None:
            for hook in self.hooks[2]:
                hook(info, proc)
        return proc

    def _resolve_target(self, request: giop.RequestMessage,
                        info: Optional[ServerRequestInfo]):
        """Resolve (servant method, odef) for *request* through its
        adapter, so a deactivated key is refused by the call that follows
        and a servant activator sees every first use.  The odef found is
        also *info*'s: interceptors key per-operation state by it, never
        by an operation string the target does not declare."""
        poa = self._adapters.get(request.adapter)
        if poa is None:
            raise OBJECT_NOT_EXIST(f"no adapter {request.adapter!r}")
        servant = poa.servant_for(request.object_key)
        iface = servant.interface()
        odef = iface.find_operation(request.operation)
        if odef is None:
            raise BAD_OPERATION(
                f"{iface.name} has no operation {request.operation!r}"
            )
        if info is not None:
            info.odef = odef
        method = getattr(servant, request.operation, None)
        if method is None:
            raise NO_IMPLEMENT(
                f"{type(servant).__name__} lacks {request.operation!r}"
            )
        return method, odef

    def _complete_dispatch(self, request: giop.RequestMessage, client: str,
                           odef: OperationDef, result,
                           info: Optional[ServerRequestInfo]) -> None:
        """Count the dispatch and send the success reply: the tail of a
        servant that returned, at once or through :meth:`_dispatch_tail`."""
        self._ctr_dispatches.value += 1
        if not request.response_expected:
            return
        codec = odef._codec  # bound when the arguments were decoded
        if not codec.out_plans:
            # No out params (the common shape): _encode_result inlined.
            pool = self._enc_pool
            enc = pool.pop() if pool else CDREncoder()
            codec.result_plan.encode(enc, result)
        else:
            enc = self._encode_result(odef, result)
        self.reply(client, request, giop.NO_EXCEPTION, enc._buf, info)
        enc.reset()
        pool = self._enc_pool
        if len(pool) < 8:
            pool.append(enc)

    def _dispatch_error(self, request: giop.RequestMessage, client: str,
                        odef: Optional[OperationDef], exc: Exception,
                        info: Optional[ServerRequestInfo]) -> None:
        """Map a dispatch-time exception to the reply it owes the client."""
        if info is not None:
            info.exception = exc
        if isinstance(exc, UserException):
            if not request.response_expected or odef is None:
                return
            if not any(tc.repo_id == exc.REPO_ID for tc in odef.raises):
                self.reply_system(client, request, UNKNOWN(
                    f"undeclared user exception {exc.REPO_ID}"
                ), info)
                return
            entry = exception_class(exc.REPO_ID)
            if entry is None:
                self.reply_system(client, request, UNKNOWN(
                    f"unregistered exception {exc.REPO_ID}"
                ), info)
                return
            _cls, tc = entry
            enc = self._acquire_encoder()
            enc.write_string(exc.REPO_ID)
            get_plan(tc).encode(enc, dict(zip(exc.FIELDS, exc.field_values())))
            self.reply(client, request, giop.USER_EXCEPTION, enc._buf, info)
            enc.reset()
            self._release_encoder(enc)
        elif isinstance(exc, SystemException):
            if request.response_expected:
                self.reply_system(client, request, exc, info)
        else:  # servant bug -> UNKNOWN, as CORBA mandates
            self.metrics.counter(names.ORB_SERVANT_ERRORS).inc()
            if request.response_expected:
                self.reply_system(client, request, UNKNOWN(repr(exc)), info)

    def _dispatch_granted(self, ev) -> None:
        """A worker slot is held: charge and run the request it carries."""
        self._dispatch_charge(ev._value)

    def _dispatch_charge(self, ctx: tuple) -> None:
        """Charge the operation's CPU cost at this host's speed, then
        run the servant.  The dispatch context ``(request, client, odef,
        method, args, info)`` rides as the cost timeout's value and
        :meth:`_dispatch_finish` is its callback: no per-call closure."""
        cost_s = ctx[2].cpu_cost / self.host.profile.cpu_power
        for listener in self.dispatch_listeners:
            listener(cost_s)
        if cost_s > 0:
            Timeout(self.env, cost_s, ctx).callbacks.append(
                self._dispatch_finish)
        else:
            self._dispatch_finish(_ImmediateCtx(ctx))

    def _dispatch_finish(self, ev) -> None:
        """Run the servant, free its worker slot and reply; a generator
        it hands back goes to :meth:`_dispatch_tail`, slot still held."""
        request, client, odef, method, args, info = ev._value
        orb = self.orb
        slots = self._slots
        try:
            prev, orb.current_request = orb.current_request, info
            prev_client, orb.current_client = orb.current_client, client
            try:
                result = method(*args)
            finally:
                orb.current_request = prev
                orb.current_client = prev_client
            if hasattr(result, "send") and hasattr(result, "throw"):
                self.env.process(self._dispatch_tail(
                    request, client, odef, result, info))
                return
            if slots is not None:
                slots.release()
                slots = None        # a failing reply must not free it twice
            self._complete_dispatch(request, client, odef, result, info)
        except Exception as exc:
            if slots is not None:
                slots.release()
            self._dispatch_error(request, client, odef, exc, info)
        self._dispatch_done(info)

    def _dispatch_tail(self, request: giop.RequestMessage, client: str,
                       odef: OperationDef, gen,
                       info: Optional[ServerRequestInfo]):
        """Drive a servant's generator to its end, free the worker slot
        it held, and reply."""
        try:
            try:
                result = yield self._run_generator(gen, info)
            finally:
                if self._slots is not None:
                    self._slots.release()
            self._complete_dispatch(request, client, odef, result, info)
        except Exception as exc:
            self._dispatch_error(request, client, odef, exc, info)
        finally:
            self._dispatch_done(info)

    # -- replies -----------------------------------------------------------
    def _encode_result(self, odef: OperationDef, result) -> CDREncoder:
        """Marshal a reply body with out parameters into a pooled
        encoder and return it.

        The caller frames ``enc._buf`` directly, then resets and
        releases the encoder — the body bytes are never snapshotted.
        """
        codec = odef._codec
        outs = codec.out_plans
        pool = self._enc_pool
        enc = pool.pop() if pool else CDREncoder()
        # Normalize to (result?, *outs)
        if codec.result_void:
            values = result if isinstance(result, tuple) else (result,)
            if len(values) != len(outs):
                raise INTERNAL(
                    f"{odef.name} must return {len(outs)} out values"
                )
            codec.result_plan.encode(enc, None)
        else:
            if not isinstance(result, tuple) or len(result) != 1 + len(outs):
                raise INTERNAL(
                    f"{odef.name} must return (result, {len(outs)} outs)"
                )
            codec.result_plan.encode(enc, result[0])
            values = result[1:]
        for plan, value in zip(outs, values):
            plan.encode(enc, value)
        return enc

    def reply(self, client: str, request: giop.RequestMessage,
              status: int, body,
              info: Optional[ServerRequestInfo] = None) -> None:
        """Send one reply — success, exception or shed: the one place a
        reply leaves the listener, so the one place that asks where the
        client is.  A reply to this ORB's own requester is settled
        here, never framed."""
        self._ctr_replies.value += 1
        collocated = client == self.host_id
        if collocated:
            size = giop.REPLY_HEADER_BYTES + len(body)
        else:
            wire = giop.encode_reply(request.request_id, status, body)
            size = len(wire)
        if info is not None:
            info.reply_status = status
            info.reply_bytes = size
        if not collocated:
            self.network.send(self.host_id, client, "giop", wire, size)
        elif self.host.alive:
            self._complete(giop.ReplyMessage(
                request.request_id, status, bytes(body)), size)
        else:
            # What Network.send does with a dead host's loopback.
            self.metrics.counter(names.NET_DROPPED_SRC_DEAD).inc()

    def reply_system(self, client: str, request: giop.RequestMessage,
                     exc: SystemException,
                     info: Optional[ServerRequestInfo] = None) -> None:
        enc = self._acquire_encoder()
        enc.write_string(exc.repo_id)
        enc.write_string(exc.reason or "")
        enc.write_ulong(exc.minor)
        enc.write_ulong(exc.completed)
        self.reply(client, request, giop.SYSTEM_EXCEPTION, enc._buf, info)
        enc.reset()
        self._release_encoder(enc)

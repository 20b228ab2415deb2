"""The server side of an ORB: from a delivered message to a sent reply.

One :class:`Listener` per ORB is bound to the host's ``giop`` port.  A
request meets its stages in order: :meth:`Listener.on_message` (decode,
MSG_MULTI unpack; a reply goes straight to the requester),
:meth:`Listener.admit` (shed or count in), :meth:`Listener.dispatch`
and :meth:`Listener.reply`.  A request from this ORB's own requester
skips the first stage — it was never framed — and enters at ``admit``;
its reply is settled by ``reply`` instead of sent.

Servant methods may return either a plain value or a generator; a
generator is driven as a simulation process, which lets servants make
nested remote calls or sleep for simulated time while serving.
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
    """Minimal event stand-in for the zero-CPU-cost dispatch path, so
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

    __slots__ = ("env", "capacity", "_free", "_waiters")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"dispatch workers must be >= 1, got {capacity}"
            )
        self.env = env
        self.capacity = capacity
        self._free = capacity
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        """Event that fires (possibly immediately) once a slot is held."""
        ev = self.env.event()
        if self._free > 0:
            self._free -= 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed(None)
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
        self.interceptors: list = []
        # Hot-path counters resolved once instead of per call.
        self._ctr_replies = self.metrics.counter(names.ORB_REPLIES)
        self._ctr_dispatches = self.metrics.counter(names.ORB_DISPATCHES)

    def _watch_dispatch(self) -> None:
        depth = self.inflight
        for watcher in self.dispatch_watchers:
            watcher(depth)

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
        if self.dispatch_watchers:
            self._watch_dispatch()
        info = None
        if self.interceptors:
            info = ServerRequestInfo(self.orb, request, src, wire_size)
            for icpt in self.interceptors:
                icpt.receive_request(info)
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
        """Serve one admitted request, without a kernel process when
        nothing needs one."""
        if self._slots is None and self._dispatch_fast(request, client, info):
            return
        self.env.process(self._dispatch_process(request, client, info))

    def _dispatch_done(self, info: Optional[ServerRequestInfo]) -> None:
        """Close one admitted request, whatever its path and outcome:
        in-flight accounting, then ``finish_request`` in reverse order."""
        self.inflight -= 1
        if self.dispatch_watchers:
            self._watch_dispatch()
        if info is not None:
            info.end = self.env._now
            for icpt in reversed(self.interceptors):
                icpt.finish_request(info)

    def _run_generator(self, gen, info: Optional[ServerRequestInfo]):
        """Start a servant's generator as a process of its own and tell
        the interceptors, so calls it makes find this request."""
        proc = self.env.process(gen)
        if info is not None:
            for icpt in self.interceptors:
                hook = getattr(icpt, "child_process", None)
                if hook is not None:
                    hook(info, proc)
        return proc

    def _resolve_target(self, request: giop.RequestMessage):
        """Resolve (servant method, odef) for *request* through its
        adapter, so a deactivated key is refused by the call that follows
        and a servant activator sees every first use."""
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
        method = getattr(servant, request.operation, None)
        if method is None:
            raise NO_IMPLEMENT(
                f"{type(servant).__name__} lacks {request.operation!r}"
            )
        return method, odef

    def _dispatch_process(self, request: giop.RequestMessage, client: str,
                          info: Optional[ServerRequestInfo]):
        """Process one admitted request (runs as a simulation process)."""
        odef: Optional[OperationDef] = None
        orb = self.orb
        try:
            method, odef = self._resolve_target(request)
            dec = CDRDecoder(request.args)
            args = odef.codec().decode_in(dec)

            slots = self._slots
            if slots is not None:
                # Wait (FIFO) for a worker slot: servant execution is
                # serialized through the host's CPU parallelism.
                yield slots.acquire()
            try:
                # Charge the operation's CPU cost at this host's speed.
                cost_s = odef.cpu_cost / self.host.profile.cpu_power
                for listener in self.dispatch_listeners:
                    listener(cost_s)
                if cost_s > 0:
                    yield self.env.timeout(cost_s)

                prev, orb.current_request = orb.current_request, info
                try:
                    result = method(*args)
                finally:
                    orb.current_request = prev
                if hasattr(result, "send") and hasattr(result, "throw"):
                    # Servant method is a generator: drive it to completion.
                    result = yield self._run_generator(result, info)
            finally:
                if slots is not None:
                    slots.release()

            self._complete_dispatch(request, client, odef, result, info)
        except Exception as exc:
            self._dispatch_error(request, client, odef, exc, info)
        finally:
            self._dispatch_done(info)

    def _complete_dispatch(self, request: giop.RequestMessage, client: str,
                           odef: OperationDef, result,
                           info: Optional[ServerRequestInfo]) -> None:
        """Count the dispatch and send the success reply (shared tail of
        the process and synchronous dispatch paths)."""
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

    def _dispatch_fast(self, request: giop.RequestMessage, client: str,
                       info: Optional[ServerRequestInfo]) -> bool:
        """Serve one request without a kernel process when nothing needs
        one: no worker slots (checked by the caller) and a plain
        (non-generator) servant method.  Zero-cost operations complete
        inside the delivery callback; operations with CPU cost run off
        a single timeout callback.  Either way the per-call process
        creation and its kernel steps are skipped.

        Returns False — before running any servant code — when the
        request must take the process path instead.  When it returns
        True the request is (or will be) fully handled, including the
        in-flight accounting the caller incremented.
        """
        odef: Optional[OperationDef] = None
        try:
            method, odef = self._resolve_target(request)
            code = getattr(method, "__code__", None)
            if code is None or code.co_flags & 0x20:
                return False  # CO_GENERATOR or unknowable: process path
            codec = odef._codec or odef.codec()
            dec1 = codec.in1_decode
            if dec1 is not None:
                args = (dec1(CDRDecoder(request.args)),)
            else:
                args = codec.decode_in(CDRDecoder(request.args))
        except Exception as exc:
            self._dispatch_error(request, client, odef, exc, info)
            self._dispatch_done(info)
            return True
        # Charge the operation's CPU cost at this host's speed (same
        # accounting point as the process path: after decode, before
        # the servant runs).
        cost_s = odef.cpu_cost / self.host.profile.cpu_power
        for listener in self.dispatch_listeners:
            listener(cost_s)
        if cost_s > 0:
            # The dispatch context rides as the timeout's value — no
            # per-call closure allocation, and _dispatch_finish is the
            # callback itself (no unpacking shim frame in between).
            Timeout(self.env, cost_s,
                    (request, client, odef, method, args, info)
                    ).callbacks.append(self._dispatch_finish)
        else:
            self._dispatch_finish(
                _ImmediateCtx((request, client, odef, method, args, info)))
        return True

    def _dispatch_finish(self, ev) -> None:
        """Run the servant and reply; tail of the processless path.

        Runs as the cost-timeout's callback; the dispatch context
        ``(request, client, odef, method, args, info)`` rides in
        ``ev._value``.
        """
        request, client, odef, method, args, info = ev._value
        orb = self.orb
        try:
            prev, orb.current_request = orb.current_request, info
            try:
                result = method(*args)
            finally:
                orb.current_request = prev
            if hasattr(result, "send") and hasattr(result, "throw"):
                # A plain method handed back a generator object: drive
                # it to completion on the kernel like the process path.
                self.env.process(self._dispatch_tail(
                    request, client, odef, result, info))
                return
            self._complete_dispatch(request, client, odef, result, info)
        except Exception as exc:
            self._dispatch_error(request, client, odef, exc, info)
        self._dispatch_done(info)

    def _dispatch_tail(self, request: giop.RequestMessage, client: str,
                       odef: OperationDef, gen,
                       info: Optional[ServerRequestInfo]):
        """Finish a fast-path dispatch whose servant returned a generator."""
        try:
            result = yield self._run_generator(gen, info)
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

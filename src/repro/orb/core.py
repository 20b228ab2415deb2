"""The ORB runtime: typed invocation between hosts on the simulated net.

One :class:`ORB` runs per host.  A client marshals a request with the
target operation's signature, the encoded bytes travel the network, the
server ORB unmarshals, charges the operation's CPU cost (scaled by the
host's power), dispatches to the servant, and sends back a CDR-encoded
reply.

:meth:`ORB.__init__` is the assembly: it picks the stages once (a
:class:`~repro.orb.listener.Listener` for everything inbound,
:class:`~repro.orb.channels.PipelinedChannels` or the direct
``network.send`` for outgoing oneways) and keeps the requester role
itself.  The halves barely cross: the listener hands a reply to
:meth:`ORB._complete`, and the requester hands the listener's
:meth:`~repro.orb.listener.Listener.admit` a request whose target is an
object of this very ORB — the collocated branch of the transport step,
which with its twin in :meth:`Listener.reply
<repro.orb.listener.Listener.reply>` is all that tells a call that
stays on its host from one that crosses the fabric.

Invocation is asynchronous at the kernel level: :meth:`ORB.invoke`
returns a kernel :class:`~repro.sim.kernel.Event` that a simulation
process ``yield``-s on.  Test code outside the simulation can use
:meth:`ORB.sync` to run the clock until a reply arrives.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any as TAny
from typing import Callable, Optional, Sequence

from repro.obs import names
from repro.orb import giop
from repro.orb.cdr import CDRDecoder, CDREncoder, decode_value
from repro.orb.channels import PipelinedChannels
from repro.orb.exceptions import (
    BAD_PARAM,
    COMM_FAILURE,
    SYSTEM_EXCEPTIONS,
    TIMEOUT,
    UNKNOWN,
    SystemException,
)
# The interface model and the interceptor views live below the runtime
# (model.py, interception.py) and are re-exported here, where every
# caller has always imported them from.
from repro.orb.interception import (ClientRequestInfo, ServerRequestInfo,
                                    bound_hook)
from repro.orb.ior import IOR
from repro.orb.listener import Listener
from repro.orb.model import (
    PARAM_MODES,
    InterfaceDef,
    OperationDef,
    ParamDef,
    Servant,
    Stub,
    exception_class,
    make_exception_class,
    op,
    register_exception,
)
from repro.orb.poa import POA
from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.network import Network
from repro.util.errors import ConfigurationError

#: Bound of ``ORB._prefix_cache`` (cleared wholesale when full).  The
#: cache pays: off, a two-host null call costs +23 % (19.95 -> 24.58 us,
#: DESIGN "Cache ablation").
_PREFIX_CACHE_MAX = 1024


class ORB:
    """One Object Request Broker per simulated host."""

    #: Reply deadline for response-expected calls made without an
    #: explicit (or default) timeout.  A lost reply must not park its
    #: pending-table entry forever; 60 simulated seconds is far beyond
    #: any legitimate reply latency in these topologies.  Set the
    #: instance's ``reply_deadline`` to ``None`` to restore unbounded
    #: waiting.
    REPLY_DEADLINE = 60.0

    def __init__(
        self,
        env: Environment,
        network: Network,
        host_id: str,
        default_timeout: Optional[float] = None,
        dispatch_workers: Optional[int] = None,
        dispatch_limit: Optional[int] = None,
        pipeline_window: Optional[float] = None,
    ) -> None:
        if default_timeout is not None and default_timeout < 0:
            raise ConfigurationError(
                f"default timeout must be >= 0, got {default_timeout}"
            )
        self.env = env
        self.network = network
        self.host_id = host_id
        self.host = network.topology.host(host_id)
        self.metrics = network.metrics
        self.default_timeout = default_timeout
        self.reply_deadline: Optional[float] = self.REPLY_DEADLINE
        self._adapters: dict[str, POA] = {}
        self._enc_pool: list[CDREncoder] = []
        #: (host, adapter, key, operation) -> pre-encoded request routing
        #: segment; repeat invocations skip four string encodes per call.
        self._prefix_cache: dict[tuple, bytes] = {}
        self._next_request_id = 0
        #: request_id -> (reply event, OperationDef, ClientRequestInfo|None)
        self._pending: dict[
            int, tuple[Event, OperationDef, Optional[ClientRequestInfo]]
        ] = {}
        #: Reply deadlines, kept out of the kernel event queue.  One
        #: kernel timer is armed for the earliest call still pending.
        #: The top is always a pending call: a reply drops the answered
        #: entries from the top as it lands, and a crash clears the heap
        #: with the pending table, so an ORB with nothing pending holds
        #: no entries and the heap holds the calls in flight plus those
        #: answered out of order below the top.  A per-call 60 s kernel
        #: Timeout would linger in the kernel heap long after the reply,
        #: growing it by one entry per call and taxing every subsequent
        #: push/pop with deeper sifts.
        self._deadline_heap: list[tuple] = []
        self._deadline_armed_at = float("inf")
        #: versions the armed sweeper: every (re-)arm bumps it and a
        #: firing timer whose token is stale returns immediately, so at
        #: most one live sweeper exists no matter how often an earlier
        #: deadline preempts a later one (a preempted timer must not
        #: re-arm a duplicate when it finally fires).
        self._deadline_token = 0
        #: called with the pending-table depth on every add/remove.
        self.pending_watchers: list[Callable[[int], None]] = []
        #: client hooks bound at registration, one tuple per stage:
        #: ``send_request`` in registration order, ``receive_reply`` and
        #: ``receive_exception`` reversed; None until one is registered.
        self._client_hooks: Optional[tuple[tuple, tuple, tuple]] = None
        #: the :class:`ServerRequestInfo` of the servant method on the
        #: stack right now (the role of ``PortableServer::Current``),
        #: ``None`` between servant calls and on un-intercepted ORBs.
        #: Set only around ``method(*args)``, never at admission: a
        #: dispatch with CPU cost runs its servant from a later timeout
        #: callback, with other requests admitted in between.
        self.current_request: Optional[ServerRequestInfo] = None
        # Hot-path counter resolved once instead of per call.
        self._ctr_requests = self.metrics.counter(names.ORB_REQUESTS)
        #: meter -> its (``.msgs``, ``.bytes``) counters, bound on first
        #: use.  Bounded by the ``meter=`` call sites in ``src/`` (25):
        #: a meter is a program constant, never wire input.
        self._meters: dict[str, tuple] = {}
        #: observability hub, set by repro.obs.Observability.install().
        self.obs = None
        #: the node's failure detector: host -> calls to it that timed
        #: out since a frame from it last arrived.  The deadline sweeper
        #: adds, the listener pops a host on any frame it delivers, and
        #: a crash clears it with the rest of the host's RAM.
        self.suspects: dict[str, int] = {}
        #: the node's liveness clock: host -> sim time a frame from it
        #: last arrived.  The listener writes it from ``msg.src`` (set
        #: by the network, not the wire); a crash clears it.  Calls to
        #: this ORB's own objects are collocated and skip the listener,
        #: so readers cannot count on hearing their own host.
        self.heard: dict[str, float] = {}
        # -- assembly: each stage is an object picked here, once; the
        # stages validate their own options, and nothing is bound or
        # hooked until all of them stand -------------------------------
        #: GIOP request pipelining: with ``pipeline_window`` set, oneway
        #: sends sharing a destination within the window leave as one
        #: MSG_MULTI transmission; without, each is its own message and
        #: there is no channel table.
        self.channels = (PipelinedChannels(env, network, host_id,
                                           pipeline_window)
                         if pipeline_window is not None else None)
        #: everything inbound; admission (``dispatch_limit``) and CPU
        #: parallelism (``dispatch_workers``) are its business.
        self.listener = Listener(
            self, env, network, self.host, self._adapters, self._enc_pool,
            self._complete, dispatch_workers, dispatch_limit)
        #: the listener's own hook lists, exposed: cpu-seconds per
        #: dispatch (resource accounting), inbound depth per admit/finish.
        self.dispatch_listeners = self.listener.dispatch_listeners
        self.dispatch_watchers = self.listener.dispatch_watchers
        network.interface(host_id).bind("giop", self.listener.on_message)
        self.host.on_crash.append(self._on_host_crash)

    # -- interceptors ------------------------------------------------------
    def add_client_interceptor(self, interceptor: TAny) -> None:
        """Register a client request interceptor (see
        :mod:`repro.orb.interception` for the hook order)."""
        send, reply, exception = self._client_hooks or ((), (), ())
        self._client_hooks = (
            send + bound_hook(interceptor, "send_request"),
            bound_hook(interceptor, "receive_reply") + reply,
            bound_hook(interceptor, "receive_exception") + exception)

    def add_server_interceptor(self, interceptor: TAny) -> None:
        """Register a server request interceptor (see
        :mod:`repro.orb.interception` for the hook order)."""
        receive, finish, child = self.listener.hooks or ((), (), ())
        self.listener.hooks = (
            receive + bound_hook(interceptor, "receive_request"),
            bound_hook(interceptor, "finish_request") + finish,
            child + bound_hook(interceptor, "child_process"))

    # -- adapters ----------------------------------------------------------
    def adapter(self, name: str) -> POA:
        """Return (creating on first use) the named object adapter."""
        poa = self._adapters.get(name)
        if poa is None:
            poa = POA(self, name)
            self._adapters[name] = poa
        return poa

    # -- client side -------------------------------------------------------
    def stub(self, ior: IOR, interface: InterfaceDef) -> Stub:
        """Create a typed proxy for *ior* narrowed to *interface*."""
        return Stub(self, ior, interface)

    def _request_prefix(self, ior: IOR, operation: str) -> bytes:
        """Cached pre-encoded routing segment for (target, operation)."""
        key = (ior.host_id, ior.adapter, ior.object_key, operation)
        cache = self._prefix_cache
        prefix = cache.get(key)
        if prefix is None:
            if len(cache) >= _PREFIX_CACHE_MAX:
                cache.clear()
            prefix = giop.encode_request_prefix(
                ior.host_id, ior.adapter, ior.object_key, operation)
            cache[key] = prefix
        return prefix

    def send_oneway(
        self,
        ior: IOR,
        odef: OperationDef,
        args: Sequence[TAny],
        meter: Optional[str] = None,
    ) -> int:
        """True fire-and-forget send of a oneway operation.

        Marshals and ships the request with ``response_expected=False``
        and *no* reply machinery: no kernel event is allocated and the
        pending-reply table is never touched, so callers (periodic
        reporters above all) cannot leak state no matter how many
        reports they send or whether the peer is reachable.  This is
        the one-target case of :meth:`send_oneway_fanout`.  Returns the
        wire size in bytes.
        """
        return self.send_oneway_fanout((ior,), odef, args, meter)

    def send_oneway_fanout(
        self,
        iors: Sequence[IOR],
        odef: OperationDef,
        args: Sequence[TAny],
        meter: Optional[str] = None,
    ) -> int:
        """Fan one oneway out to many targets, marshalling args once.

        The argument body is encoded a single time and shared by every
        per-destination frame — only the routing prefix and request id
        differ — so wide fan-outs (batched event forwarding above all)
        stop paying the marshal cost once per subscriber.  Returns total
        wire bytes (a target on this host counted at its frame's size).
        """
        if not odef.oneway:
            raise BAD_PARAM(
                f"{odef.name} expects a response; use invoke() instead"
            )
        return self._send_requests(iors, odef, args, meter)

    def flush_pipelines(self) -> None:
        """Force-flush every buffered pipeline channel now."""
        if self.channels is not None:
            self.channels.flush()

    def invoke(
        self,
        ior: IOR,
        odef: OperationDef,
        args: Sequence[TAny],
        timeout: Optional[float] = None,
        meter: Optional[str] = None,
    ) -> Event:
        """Invoke *odef* on *ior*; returns an Event with the result.

        Result shape: the operation result, or a tuple
        ``(result, *out_values)`` when out/inout parameters exist
        (result omitted entirely when void and outs exist).
        ORB-level failures (timeout, unreachable peer) fail the event
        with a pre-defused SystemException.  Oneway operations are
        delegated to :meth:`send_oneway` and complete immediately.

        A call to an object of this ORB is admitted before ``invoke``
        returns, so a plain servant method with no CPU cost has run and
        the returned event is already triggered; anything else (CPU
        cost, a generator servant, worker slots) completes later as on
        the wire.
        """
        if odef.oneway:
            self.send_oneway(ior, odef, args, meter=meter)
            reply_event = self.env.event()
            reply_event.succeed(None)
            return reply_event

        if timeout is None:
            timeout = self.default_timeout
        elif timeout < 0:
            # Refused before anything is marshalled, registered or sent:
            # a deadline in the past would leave the sweeper un-armed.
            raise BAD_PARAM(f"{odef.name}: negative timeout {timeout}")
        reply_event = Event(self.env)
        # Even "no timeout" callers get a generous reply deadline:
        # a reply lost to a crash or partition must not park the
        # pending-table entry forever.
        self._send_requests(
            (ior,), odef, args, meter, reply_event,
            timeout if timeout is not None else self.reply_deadline)
        return reply_event

    def _send_requests(
        self,
        iors: Sequence[IOR],
        odef: OperationDef,
        args: Sequence[TAny],
        meter: Optional[str],
        reply_event: Optional[Event] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """The requester's one path: marshal *args* once, then issue one
        request per target.  Returns the total request bytes.

        With a *reply_event* the request expects a response (one target:
        the event joins the pending table under *deadline*); without, it
        is a oneway.  Everything up to the last step is the same for
        every target; only the transport step asks where the target is.
        """
        codec = odef._codec or odef.codec()
        if len(args) != len(codec.in_plans):
            raise BAD_PARAM(
                f"{odef.name} expects {len(codec.in_plans)} args, "
                f"got {len(args)}"
            )
        pool = self._enc_pool
        enc = pool.pop() if pool else CDREncoder()
        enc1 = codec.in1_encode
        if enc1 is not None:
            enc1(enc, args[0])
        else:
            codec.encode_in(enc, args)
        body = enc._buf

        two_way = reply_event is not None
        ctr_oneways = (None if two_way
                       else self.metrics.counter(names.ORB_ONEWAYS))
        operation = odef.name
        hooks = self._client_hooks
        channels = self.channels
        here = self.host_id
        total = 0
        for ior in iors:
            self._next_request_id += 1
            request_id = self._next_request_id
            if hooks is not None:
                info = ClientRequestInfo(self, ior, odef, request_id, meter,
                                         not two_way)
                for hook in hooks[0]:
                    hook(info)
                service_context = info.service_context
            else:
                info, service_context = None, ()
            host_id = ior.host_id
            prefix = self._prefix_cache.get(
                (host_id, ior.adapter, ior.object_key, operation))
            if prefix is None:
                prefix = self._request_prefix(ior, operation)
            # The requester's transport branch, decided here and taken
            # at the end of the loop body: a reference into this ORB is
            # handed to the listener, never framed.  Pipelined oneways
            # stay on their channel, whose flush window is simulated
            # time.
            collocated = host_id == here and (two_way or channels is None)
            if collocated:
                size = giop.request_size(len(prefix), len(body),
                                         service_context)
            else:
                wire = giop.encode_request(request_id, two_way, prefix, body,
                                           service_context)
                size = len(wire)
            total += size
            self._ctr_requests.value += 1
            if meter is not None:
                # Per-protocol bandwidth attribution (benchmarks rely on it).
                counters = self._meters.get(meter)
                if counters is None:
                    counters = self._meters[meter] = (
                        self.metrics.counter(f"{meter}.msgs"),
                        self.metrics.counter(f"{meter}.bytes"))
                counters[0].value += 1
                counters[1].value += size
            if info is not None:
                info.request_bytes = size
                if two_way:
                    # First callback, so interceptors observe completion
                    # before the waiting process resumes.
                    reply_event.callbacks.append(info.settled)
            if two_way:
                self._pending[request_id] = (reply_event, odef, info)
                for watcher in self.pending_watchers:
                    watcher(len(self._pending))
                if deadline is not None:
                    when = self.env._now + deadline
                    heappush(self._deadline_heap,
                             (when, request_id, operation, host_id, deadline))
                    if when < self._deadline_armed_at:
                        # Preempt the armed sweeper: bumping the token
                        # turns the old (later) timer into a no-op, so
                        # exactly one live sweeper exists — the old one
                        # must not fire a duplicate re-arm, which would
                        # grow the kernel heap by one stale timer per
                        # preemption (the per-call-timer leak this heap
                        # exists to avoid).
                        self._deadline_armed_at = when
                        self._deadline_token += 1
                        Timeout(self.env, deadline,
                                self._deadline_token).callbacks.append(
                            self._sweep_deadlines)
            else:
                ctr_oneways.value += 1

            if not collocated:
                if two_way or channels is None:
                    self.network.send(here, host_id, "giop", wire, size)
                else:
                    channels.send(host_id, wire)
            elif self.host.alive:
                self.listener.admit(giop.RequestMessage(
                    request_id, two_way, host_id, ior.adapter,
                    ior.object_key, operation, bytes(body),
                    tuple(service_context)), here, size)
            else:
                # What Network.send does with a dead host's loopback.
                self.metrics.counter(names.NET_DROPPED_SRC_DEAD).inc()

            if not two_way and info is not None:
                info.end = self.env._now
                for hook in hooks[1]:
                    hook(info)
        enc.reset()
        if len(pool) < 8:
            pool.append(enc)
        return total

    def _sweep_deadlines(self, ev) -> None:
        """Expire every overdue pending call, then re-arm for the next
        call that is still pending.  Entries of calls answered out of
        order (below the top when their reply landed) are dropped here,
        overdue or not: re-arming for an answered call would cost every
        call one more timer a deadline after its reply.  A timer whose
        token is stale was preempted by an earlier-armed sweeper and
        must do nothing: sweeping is harmless, but its re-arm would
        duplicate the live sweeper."""
        if ev._value != self._deadline_token:
            return  # preempted: the live sweeper covers the heap
        heap = self._deadline_heap
        pending = self._pending
        now = self.env.now
        while heap and (heap[0][0] <= now or heap[0][1] not in pending):
            _when, rid, op_name, host_id, deadline = heappop(heap)
            entry = pending.pop(rid, None)
            if entry is None:
                continue  # already answered
            for watcher in self.pending_watchers:
                watcher(len(pending))
            event, _odef, _info = entry
            self.metrics.counter(names.ORB_TIMEOUTS).inc()
            if host_id != self.host_id:
                self.suspects[host_id] = self.suspects.get(host_id, 0) + 1
            event.fail(TIMEOUT(
                f"no reply to {op_name} on {host_id} "
                f"within {deadline}s"
            )).defused()
        if heap:
            nxt = heap[0][0]
            self._deadline_armed_at = nxt
            self._deadline_token += 1
            Timeout(self.env, nxt - now,
                    self._deadline_token).callbacks.append(
                self._sweep_deadlines)
        else:
            self._deadline_armed_at = float("inf")

    def sync(self, event: Event):
        """Run the simulation until *event* completes; return its value.

        Only valid from outside the simulation (tests, examples).
        """
        return self.env.run(until=event)

    def call(self, ior: IOR, odef: OperationDef, args: Sequence[TAny],
             timeout: Optional[float] = None):
        """Synchronous invoke: :meth:`invoke` + :meth:`sync`."""
        return self.sync(self.invoke(ior, odef, args, timeout=timeout))

    # -- completion --------------------------------------------------------
    def _complete(self, reply: giop.ReplyMessage, wire_size: int = 0) -> None:
        """Settle the pending call *reply* answers; the listener calls
        this for every reply message it decodes."""
        pending = self._pending
        entry = pending.pop(reply.request_id, None)
        if entry is None:
            self.metrics.counter(names.ORB_LATE_REPLIES).inc()
            return
        # Answered entries leave the top as the reply lands.  An emptied
        # heap keeps ``_deadline_armed_at``: resetting it would make the
        # next call arm a second kernel Timeout beside the live sweeper.
        heap = self._deadline_heap
        while heap and heap[0][1] not in pending:
            heappop(heap)
        for watcher in self.pending_watchers:
            watcher(len(pending))
        event, odef, info = entry
        if info is not None:
            info.reply_bytes = wire_size
        try:
            if reply.status == giop.NO_EXCEPTION:
                # No-out-params result decode inlined (the common shape);
                # invoke() bound the codec when the call was made.
                codec = odef._codec
                if not codec.out_plans:
                    event.succeed(codec.result_decode(CDRDecoder(reply.body)))
                else:
                    event.succeed(self._decode_result(odef, reply.body))
            elif reply.status == giop.USER_EXCEPTION:
                dec = CDRDecoder(reply.body)
                repo_id = dec.read_string()
                entry2 = exception_class(repo_id)
                if entry2 is None:
                    event.fail(UNKNOWN(
                        f"unknown user exception {repo_id}"
                    )).defused()
                    return
                cls, tc = entry2
                fields = decode_value(dec, tc)
                event.fail(cls(**fields)).defused()
            else:
                dec = CDRDecoder(reply.body)
                repo_id = dec.read_string()
                reason = dec.read_string()
                minor = dec.read_ulong()
                completed = dec.read_ulong()
                exc_cls = SYSTEM_EXCEPTIONS.get(repo_id, UNKNOWN)
                event.fail(exc_cls(reason, minor, completed)).defused()
        except SystemException as exc:
            event.fail(exc).defused()

    def _decode_result(self, odef: OperationDef, body: bytes):
        """Unmarshal a reply body that carries out parameters."""
        codec = odef._codec
        dec = CDRDecoder(body)
        result = codec.result_plan.decode(dec)
        values = tuple(plan.decode(dec) for plan in codec.out_plans)
        if codec.result_void:
            return values if len(values) > 1 else values[0]
        return (result,) + values

    # -- failure handling --------------------------------------------------
    def _on_host_crash(self, _host) -> None:
        """Fail every outstanding client request; the host is gone."""
        pending, self._pending = self._pending, {}
        self._deadline_heap.clear()
        self.suspects.clear()
        self.heard.clear()
        if pending:
            for watcher in self.pending_watchers:
                watcher(0)
        for event, _odef, _info in pending.values():
            if not event.triggered:
                event.fail(COMM_FAILURE("host crashed")).defused()
        if self.channels is not None:
            self.channels.clear()

"""The ORB runtime: typed invocation between hosts on the simulated net.

One :class:`ORB` runs per host and binds the host's ``giop`` port.  A
client marshals a request with the target operation's signature, the
encoded bytes travel the network, the server ORB unmarshals, charges
the operation's CPU cost (scaled by the host's power), dispatches to
the servant, and sends back a CDR-encoded reply.

Invocation is asynchronous at the kernel level: :meth:`ORB.invoke`
returns a kernel :class:`~repro.sim.kernel.Event` that a simulation
process ``yield``-s on.  Test code outside the simulation can use
:meth:`ORB.sync` to run the clock until a reply arrives.

Servant methods may return either a plain value or a generator; a
generator is driven as a simulation process, which lets servants make
nested remote calls or sleep for simulated time while serving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any as TAny
from typing import Callable, Iterable, Optional, Sequence

from repro.obs import names
from repro.orb import giop
from repro.orb.cdr import CDRDecoder, CDREncoder, decode_value, encode_value
from repro.orb.compiled import get_plan, op_codec
from repro.orb.exceptions import (
    BAD_OPERATION,
    BAD_PARAM,
    COMM_FAILURE,
    COMPLETED_NO,
    INTERNAL,
    MINOR_SHED,
    NO_IMPLEMENT,
    OBJECT_NOT_EXIST,
    SYSTEM_EXCEPTIONS,
    TIMEOUT,
    TRANSIENT,
    UNKNOWN,
    SystemException,
    UserException,
)
from repro.orb.ior import IOR
from repro.orb.typecodes import TCKind, TypeCode, tc_void
from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.network import Message, Network
from repro.util.errors import ConfigurationError

#: Default per-operation dispatch cost in abstract work units; a desktop
#: (cpu_power=400) spends 0.25 ms per unit-cost operation.
DEFAULT_OP_COST = 0.1

PARAM_MODES = ("in", "inout", "out")


@dataclass(frozen=True)
class ParamDef:
    """One formal parameter of an IDL operation."""

    name: str
    tc: TypeCode
    mode: str = "in"

    def __post_init__(self) -> None:
        if self.mode not in PARAM_MODES:
            raise ConfigurationError(f"bad parameter mode {self.mode!r}")


@dataclass(frozen=True)
class OperationDef:
    """Signature of one IDL operation.

    ``raises`` lists the EXCEPT TypeCodes of declared user exceptions.
    ``cpu_cost`` is the simulated work the server performs per call.
    """

    name: str
    params: tuple[ParamDef, ...] = ()
    result: TypeCode = tc_void
    raises: tuple[TypeCode, ...] = ()
    oneway: bool = False
    cpu_cost: float = DEFAULT_OP_COST

    def __post_init__(self) -> None:
        if self.oneway and (
            self.result.kind is not TCKind.VOID
            or any(p.mode != "in" for p in self.params)
            or self.raises
        ):
            raise ConfigurationError(
                f"oneway operation {self.name!r} must be void, in-only, "
                "and raise nothing"
            )

    def in_params(self) -> list[ParamDef]:
        return [p for p in self.params if p.mode in ("in", "inout")]

    def out_params(self) -> list[ParamDef]:
        return [p for p in self.params if p.mode in ("inout", "out")]


def op(name: str, params: Sequence[tuple] = (), result: TypeCode = tc_void,
       raises: Sequence[TypeCode] = (), oneway: bool = False,
       cpu_cost: float = DEFAULT_OP_COST) -> OperationDef:
    """Shorthand OperationDef constructor.

    *params* entries are ``(name, tc)`` (mode "in") or ``(name, tc, mode)``.
    """
    pdefs = []
    for entry in params:
        if len(entry) == 2:
            pdefs.append(ParamDef(entry[0], entry[1]))
        else:
            pdefs.append(ParamDef(entry[0], entry[1], entry[2]))
    return OperationDef(name=name, params=tuple(pdefs), result=result,
                        raises=tuple(raises), oneway=oneway, cpu_cost=cpu_cost)


class InterfaceDef:
    """An IDL interface: named operations plus inherited bases."""

    def __init__(self, repo_id: str, name: str,
                 operations: Iterable[OperationDef] = (),
                 bases: Sequence["InterfaceDef"] = ()) -> None:
        self.repo_id = repo_id
        self.name = name
        self.bases = tuple(bases)
        self.operations: dict[str, OperationDef] = {}
        #: flattened name -> OperationDef lookup, built lazily on the
        #: dispatch hot path and invalidated by add_operation.
        self._op_cache: Optional[dict[str, OperationDef]] = None
        for odef in operations:
            self.add_operation(odef)

    def add_operation(self, odef: OperationDef) -> None:
        if odef.name in self.operations:
            raise ConfigurationError(
                f"duplicate operation {odef.name!r} on {self.name}"
            )
        self.operations[odef.name] = odef
        self._op_cache = None

    def add_attribute(self, name: str, tc: TypeCode, readonly: bool = False,
                      cpu_cost: float = DEFAULT_OP_COST) -> None:
        """Model an IDL attribute as _get_/_set_ operations."""
        self.add_operation(OperationDef(f"_get_{name}", (), tc,
                                        cpu_cost=cpu_cost))
        if not readonly:
            self.add_operation(
                OperationDef(f"_set_{name}", (ParamDef("value", tc),),
                             tc_void, cpu_cost=cpu_cost)
            )

    def find_operation(self, name: str) -> Optional[OperationDef]:
        cache = self._op_cache
        if cache is None:
            cache = self._op_cache = self._build_op_cache()
        return cache.get(name)

    def _build_op_cache(self) -> dict[str, OperationDef]:
        # Same precedence as the old recursive scan: own operations
        # first, then bases in declaration order, first match wins.
        cache = dict(self.operations)
        for base in self.bases:
            for name, odef in base._build_op_cache().items():
                cache.setdefault(name, odef)
        return cache

    def all_operations(self) -> dict[str, OperationDef]:
        ops: dict[str, OperationDef] = {}
        for base in self.bases:
            ops.update(base.all_operations())
        ops.update(self.operations)
        return ops

    def is_a(self, repo_id: str) -> bool:
        if self.repo_id == repo_id:
            return True
        return any(base.is_a(repo_id) for base in self.bases)

    def __repr__(self) -> str:
        return f"<InterfaceDef {self.name} ({self.repo_id})>"


class Servant:
    """Base class for objects incarnated under an object adapter.

    Subclasses set ``_interface`` (an :class:`InterfaceDef`) and define
    one method per operation.  Methods receive the decoded ``in``/
    ``inout`` arguments positionally; for operations with out/inout
    parameters they return ``(result, out1, out2, ...)``; otherwise just
    the result (or None for void).
    """

    _interface: InterfaceDef

    def interface(self) -> InterfaceDef:
        iface = getattr(self, "_interface", None)
        if iface is None:
            raise ConfigurationError(
                f"{type(self).__name__} does not declare _interface"
            )
        return iface


# -- user exception registry ---------------------------------------------------

_EXC_BY_REPO_ID: dict[str, tuple[type[UserException], TypeCode]] = {}


def register_exception(cls: type[UserException], tc: TypeCode) -> None:
    """Register a UserException subclass so replies can reconstruct it."""
    if tc.kind is not TCKind.EXCEPT:
        raise ConfigurationError(f"{tc!r} is not an exception TypeCode")
    if tuple(cls.FIELDS) != tuple(n for n, _ in tc.members):
        raise ConfigurationError(
            f"{cls.__name__}.FIELDS do not match TypeCode members"
        )
    _EXC_BY_REPO_ID[cls.REPO_ID] = (cls, tc)


def exception_class(repo_id: str) -> Optional[tuple[type[UserException], TypeCode]]:
    return _EXC_BY_REPO_ID.get(repo_id)


def make_exception_class(name: str, tc: TypeCode) -> type[UserException]:
    """Create (and register) a UserException subclass from an EXCEPT tc."""
    cls = type(name, (UserException,), {
        "REPO_ID": tc.repo_id,
        "FIELDS": tuple(n for n, _ in tc.members),
    })
    register_exception(cls, tc)
    return cls


# -- request interceptors ------------------------------------------------------
#
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


class ClientRequestInfo:
    """Mutable view of one outgoing invocation, shared by client
    interceptors across the send/complete hook pair."""

    __slots__ = ("orb", "ior", "odef", "request_id", "oneway", "meter",
                 "service_context", "request_bytes", "reply_bytes",
                 "start", "end", "slots")

    def __init__(self, orb: "ORB", ior: IOR, odef: OperationDef,
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

    def __init__(self, orb: "ORB", request: "giop.RequestMessage",
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


# -- stubs ---------------------------------------------------------------------

class Stub:
    """Client-side proxy: one method per operation returning kernel Events."""

    def __init__(self, orb: "ORB", ior: IOR, interface: InterfaceDef) -> None:
        self._orb = orb
        self._ior = ior
        self._iface = interface

    @property
    def ior(self) -> IOR:
        return self._ior

    @property
    def stub_interface(self) -> InterfaceDef:
        return self._iface

    def __getattr__(self, name: str):
        # Only called for attributes not found normally: operation lookup.
        odef = self._iface.find_operation(name)
        if odef is None:
            raise AttributeError(
                f"{self._iface.name} has no operation {name!r}"
            )

        def call(*args, _timeout: Optional[float] = None,
                 _meter: Optional[str] = None) -> Event:
            return self._orb.invoke(self._ior, odef, args,
                                    timeout=_timeout, meter=_meter)

        call.__name__ = name
        # Memoize on the instance so repeat calls skip __getattr__ and
        # the operation lookup entirely.
        self.__dict__[name] = call
        return call

    def __repr__(self) -> str:
        return f"<Stub {self._iface.name} -> {self._ior}>"


class _ImmediateCtx:
    """Minimal event stand-in for the zero-CPU-cost dispatch path, so
    :meth:`ORB._dispatch_finish` has a single (callback-shaped)
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


class _PipeChannel:
    """Per-destination buffer of encoded oneway frames awaiting a flush.

    ``token`` versions the armed flush timer: arming bumps it and any
    timer carrying a stale token is a no-op, so an early flush (size or
    byte threshold) can never be followed by a spurious empty flush.
    """

    __slots__ = ("frames", "nbytes", "token", "armed")

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.nbytes = 0
        self.token = 0
        self.armed = False


class ORB:
    """One Object Request Broker per simulated host."""

    #: Reply deadline for response-expected calls made without an
    #: explicit (or default) timeout.  A lost reply must not park its
    #: pending-table entry forever; 60 simulated seconds is far beyond
    #: any legitimate reply latency in these topologies.  Pass
    #: ``reply_deadline=None`` to restore unbounded waiting.
    REPLY_DEADLINE = 60.0

    def __init__(
        self,
        env: Environment,
        network: Network,
        host_id: str,
        default_timeout: Optional[float] = None,
        reply_deadline: Optional[float] = REPLY_DEADLINE,
        dispatch_workers: Optional[int] = None,
        dispatch_limit: Optional[int] = None,
        pipeline_window: Optional[float] = None,
        pipeline_max_frames: int = 64,
        pipeline_max_bytes: int = 16384,
    ) -> None:
        self.env = env
        self.network = network
        self.host_id = host_id
        self.host = network.topology.host(host_id)
        self.metrics = network.metrics
        self.default_timeout = default_timeout
        self.reply_deadline = reply_deadline
        #: admission control: max requests admitted and not yet finished
        #: (executing + queued for a worker slot).  ``None`` = unbounded.
        self.dispatch_limit = dispatch_limit
        #: CPU parallelism: servant execution is serialized through this
        #: many worker slots.  ``None`` = infinitely parallel (legacy).
        self._slots = (_DispatchSlots(env, dispatch_workers)
                       if dispatch_workers is not None else None)
        self._inflight = 0
        self._iface = network.interface(host_id)
        self._iface.bind("giop", self._on_message)
        self._adapters: dict[str, "POA"] = {}
        self._enc_pool: list[CDREncoder] = []
        #: (host, adapter, key, operation) -> pre-encoded request routing
        #: segment; repeat invocations skip four string encodes per call.
        self._prefix_cache: dict[tuple, bytes] = {}
        #: (adapter, key, operation) -> (poa, poa_gen, servant, odef);
        #: entries are fenced by the POA generation counter so
        #: deactivation/reactivation can never serve a stale servant.
        self._resolve_cache: dict[tuple, tuple] = {}
        self._next_request_id = 0
        #: request_id -> (reply event, OperationDef, ClientRequestInfo|None)
        self._pending: dict[
            int, tuple[Event, OperationDef, Optional[ClientRequestInfo]]
        ] = {}
        #: Reply deadlines, kept out of the kernel event queue.  One
        #: kernel timer is armed for the earliest entry; answered calls
        #: are removed lazily when their slot is swept.  A per-call 60 s
        #: kernel Timeout would linger in the kernel heap long after the
        #: reply, growing it by one entry per call and taxing every
        #: subsequent push/pop with deeper sifts.
        self._deadline_heap: list[tuple] = []
        self._deadline_armed_at = float("inf")
        #: versions the armed sweeper: every (re-)arm bumps it and a
        #: firing timer whose token is stale returns immediately, so at
        #: most one live sweeper exists no matter how often an earlier
        #: deadline preempts a later one (a preempted timer must not
        #: re-arm a duplicate when it finally fires).
        self._deadline_token = 0
        #: GIOP request pipelining: when ``pipeline_window`` is set,
        #: oneway sends sharing a destination within the window are
        #: framed into one MSG_MULTI transmission (one header, one link
        #: charge) instead of one message each.
        self.pipeline_window = pipeline_window
        self.pipeline_max_frames = min(pipeline_max_frames,
                                       giop.MAX_MULTI_FRAMES)
        self.pipeline_max_bytes = pipeline_max_bytes
        self._pipe_channels: dict[str, _PipeChannel] = {}
        #: called with cpu-seconds on every dispatch (resource accounting)
        self.dispatch_listeners: list[Callable[[float], None]] = []
        #: called with the pending-table depth on every add/remove.
        self.pending_watchers: list[Callable[[int], None]] = []
        #: called with the inbound dispatch depth on every admit/finish.
        self.dispatch_watchers: list[Callable[[int], None]] = []
        self._client_interceptors: list[TAny] = []
        self._server_interceptors: list[TAny] = []
        #: the :class:`ServerRequestInfo` of the servant method on the
        #: stack right now (the role of ``PortableServer::Current``),
        #: ``None`` between servant calls and on un-intercepted ORBs.
        #: Set only around ``method(*args)``, never at admission: a
        #: dispatch with CPU cost runs its servant from a later timeout
        #: callback, with other requests admitted in between.
        self.current_request: Optional[ServerRequestInfo] = None
        # Hot-path counters resolved once instead of per call.
        self._ctr_requests = self.metrics.counter(names.ORB_REQUESTS)
        self._ctr_replies = self.metrics.counter(names.ORB_REPLIES)
        self._ctr_dispatches = self.metrics.counter(names.ORB_DISPATCHES)
        #: observability hub, set by repro.obs.Observability.install().
        self.obs = None
        self.host.on_crash.append(self._on_host_crash)

    # -- interceptors ------------------------------------------------------
    def add_client_interceptor(self, interceptor: TAny) -> None:
        """Register a client request interceptor (see module notes)."""
        self._client_interceptors.append(interceptor)

    def add_server_interceptor(self, interceptor: TAny) -> None:
        """Register a server request interceptor (see module notes)."""
        self._server_interceptors.append(interceptor)

    def _watch_pending(self) -> None:
        if self.pending_watchers:
            depth = len(self._pending)
            for watcher in self.pending_watchers:
                watcher(depth)

    def _watch_dispatch(self) -> None:
        if self.dispatch_watchers:
            depth = self._inflight
            for watcher in self.dispatch_watchers:
                watcher(depth)

    @property
    def inflight_dispatches(self) -> int:
        """Requests admitted and not yet finished (queued + executing)."""
        return self._inflight

    # -- adapters ----------------------------------------------------------
    def adapter(self, name: str) -> "POA":
        """Return (creating on first use) the named object adapter."""
        poa = self._adapters.get(name)
        if poa is None:
            from repro.orb.poa import POA  # deferred: poa imports core

            poa = POA(self, name)
            self._adapters[name] = poa
        return poa

    def adapters(self) -> dict[str, "POA"]:
        return dict(self._adapters)

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
            if len(cache) >= 1024:
                cache.clear()
            prefix = giop.encode_request_prefix(
                ior.host_id, ior.adapter, ior.object_key, operation)
            cache[key] = prefix
        return prefix

    def _marshal_args_pooled(self, odef: OperationDef,
                             args: Sequence[TAny]) -> CDREncoder:
        """Marshal *args* into a pooled encoder and return it.

        The caller reads ``enc._buf`` directly (zero-copy into the
        framing layer), then must ``reset()`` and release the encoder.
        """
        try:
            codec = odef._codec
        except AttributeError:
            codec = op_codec(odef)
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
        return enc

    def _marshal_args(self, odef: OperationDef, args: Sequence[TAny]) -> bytes:
        enc = self._marshal_args_pooled(odef, args)
        args_bytes = enc.take()
        self._release_encoder(enc)
        return args_bytes

    def _client_send_hooks(
        self, ior: IOR, odef: OperationDef, request_id: int,
        meter: Optional[str], oneway: bool,
    ) -> tuple[Optional[ClientRequestInfo], Sequence[tuple[int, bytes]]]:
        """Run send_request interceptors; returns (info, service_context)."""
        if not self._client_interceptors:
            return None, ()
        info = ClientRequestInfo(self, ior, odef, request_id, meter, oneway)
        for icpt in self._client_interceptors:
            icpt.send_request(info)
        return info, info.service_context

    def _finish_client(self, info: ClientRequestInfo, event: Event) -> None:
        info.end = self.env.now
        if event.ok:
            for icpt in reversed(self._client_interceptors):
                icpt.receive_reply(info)
        else:
            exc = event.value
            for icpt in reversed(self._client_interceptors):
                icpt.receive_exception(info, exc)

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
        reports they send or whether the peer is reachable.  Returns
        the wire size in bytes.
        """
        if not odef.oneway:
            raise BAD_PARAM(
                f"{odef.name} expects a response; use invoke() instead"
            )
        enc = self._marshal_args_pooled(odef, args)
        self._next_request_id += 1
        request_id = self._next_request_id
        info, service_context = self._client_send_hooks(
            ior, odef, request_id, meter, oneway=True)
        wire = giop.encode_request(
            request_id, False, self._request_prefix(ior, odef.name),
            enc._buf, service_context)
        enc.reset()
        self._release_encoder(enc)
        self._ctr_requests.inc()
        self.metrics.counter(names.ORB_ONEWAYS).inc()
        if meter is not None:
            # Per-protocol bandwidth attribution (benchmarks rely on it).
            self.metrics.counter(f"{meter}.msgs").inc()
            self.metrics.counter(f"{meter}.bytes").inc(len(wire))
        if self.pipeline_window is not None:
            self._pipe_send(ior.host_id, wire)
        else:
            self.network.send(self.host_id, ior.host_id, "giop", wire,
                              len(wire))
        if info is not None:
            info.request_bytes = len(wire)
            info.end = self.env.now
            for icpt in reversed(self._client_interceptors):
                icpt.receive_reply(info)
        return len(wire)

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
        stop paying the marshal cost once per subscriber.  Semantics
        per target are exactly :meth:`send_oneway`.  Returns total wire
        bytes.
        """
        if not odef.oneway:
            raise BAD_PARAM(
                f"{odef.name} expects a response; use invoke() instead"
            )
        enc = self._marshal_args_pooled(odef, args)
        ctr_oneways = self.metrics.counter(names.ORB_ONEWAYS)
        pipelined = self.pipeline_window is not None
        total = 0
        for ior in iors:
            self._next_request_id += 1
            request_id = self._next_request_id
            info, service_context = self._client_send_hooks(
                ior, odef, request_id, meter, oneway=True)
            wire = giop.encode_request(
                request_id, False, self._request_prefix(ior, odef.name),
                enc._buf, service_context)
            self._ctr_requests.inc()
            ctr_oneways.inc()
            if meter is not None:
                self.metrics.counter(f"{meter}.msgs").inc()
                self.metrics.counter(f"{meter}.bytes").inc(len(wire))
            if pipelined:
                self._pipe_send(ior.host_id, wire)
            else:
                self.network.send(self.host_id, ior.host_id, "giop",
                                  wire, len(wire))
            total += len(wire)
            if info is not None:
                info.request_bytes = len(wire)
                info.end = self.env.now
                for icpt in reversed(self._client_interceptors):
                    icpt.receive_reply(info)
        enc.reset()
        self._release_encoder(enc)
        return total

    # -- GIOP request pipelining -------------------------------------------
    def _pipe_send(self, dst: str, wire: bytes) -> None:
        """Buffer one encoded oneway for *dst*; flush on thresholds.

        Frames accumulate until ``pipeline_max_frames`` / ``_max_bytes``
        force an immediate flush, or the ``pipeline_window`` age timer
        fires — whichever comes first.  Send order is preserved: frames
        are appended here and unpacked in order by the receiving ORB.
        """
        chan = self._pipe_channels.get(dst)
        if chan is None:
            chan = self._pipe_channels[dst] = _PipeChannel()
        chan.frames.append(wire)
        chan.nbytes += len(wire)
        if (len(chan.frames) >= self.pipeline_max_frames
                or chan.nbytes >= self.pipeline_max_bytes):
            self._flush_channel(dst, chan)
        elif not chan.armed:
            chan.armed = True
            chan.token += 1
            Timeout(self.env, self.pipeline_window,
                    (dst, chan.token)).callbacks.append(self._pipe_timer)

    def _pipe_timer(self, ev) -> None:
        dst, token = ev._value
        chan = self._pipe_channels.get(dst)
        if chan is None or chan.token != token:
            return  # superseded by an earlier threshold flush
        self._flush_channel(dst, chan)

    def _flush_channel(self, dst: str, chan: _PipeChannel) -> None:
        frames = chan.frames
        if not frames:
            chan.armed = False
            return
        chan.frames = []
        chan.nbytes = 0
        chan.armed = False
        chan.token += 1  # invalidate any armed window timer
        if len(frames) == 1:
            wire = frames[0]
            self.network.send(self.host_id, dst, "giop", wire, len(wire))
            return
        wire = giop.encode_multi(frames)
        self.metrics.counter(names.ORB_PIPELINE_FLUSHES).inc()
        self.metrics.counter(names.ORB_PIPELINE_FRAMES).inc(len(frames))
        self.network.send(self.host_id, dst, "giop", wire, len(wire),
                          frames=len(frames))

    def flush_pipelines(self) -> None:
        """Force-flush every buffered pipeline channel now."""
        for dst, chan in self._pipe_channels.items():
            self._flush_channel(dst, chan)

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
        """
        if odef.oneway:
            self.send_oneway(ior, odef, args, meter=meter)
            reply_event = self.env.event()
            reply_event.succeed(None)
            return reply_event

        if timeout is None:
            timeout = self.default_timeout
        # _marshal_args_pooled and _request_prefix inlined below: invoke
        # is the one client path every two-way call takes, and the saved
        # frames are a measurable share of per-call overhead.
        try:
            codec = odef._codec
        except AttributeError:
            codec = op_codec(odef)
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

        self._next_request_id += 1
        request_id = self._next_request_id
        if self._client_interceptors:
            info, service_context = self._client_send_hooks(
                ior, odef, request_id, meter, oneway=False)
        else:
            info, service_context = None, ()
        prefix = self._prefix_cache.get(
            (ior.host_id, ior.adapter, ior.object_key, odef.name))
        if prefix is None:
            prefix = self._request_prefix(ior, odef.name)
        wire = giop.encode_request(
            request_id, True, prefix, enc._buf, service_context)
        enc.reset()
        pool = self._enc_pool
        if len(pool) < 8:
            pool.append(enc)
        self._ctr_requests.value += 1
        if meter is not None:
            # Per-protocol bandwidth attribution (benchmarks rely on it).
            self.metrics.counter(f"{meter}.msgs").inc()
            self.metrics.counter(f"{meter}.bytes").inc(len(wire))

        reply_event = Event(self.env)
        if info is not None:
            info.request_bytes = len(wire)
            # First callback, so interceptors observe completion before
            # the waiting process resumes.
            reply_event.callbacks.append(
                lambda ev, i=info: self._finish_client(i, ev))
        self._pending[request_id] = (reply_event, odef, info)
        if self.pending_watchers:
            self._watch_pending()
        self.network.send(self.host_id, ior.host_id, "giop", wire, len(wire))

        # Even "no timeout" callers get a generous reply deadline:
        # a reply lost to a crash or partition must not park the
        # pending-table entry forever.
        deadline = timeout if timeout is not None else self.reply_deadline
        if deadline is not None:
            when = self.env._now + deadline
            heappush(self._deadline_heap,
                     (when, request_id, odef.name, ior.host_id, deadline))
            if when < self._deadline_armed_at:
                # Preempt the armed sweeper: bumping the token turns the
                # old (later) timer into a no-op, so exactly one live
                # sweeper exists — the old one must not fire a duplicate
                # re-arm, which would grow the kernel heap by one stale
                # timer per preemption (the per-call-timer leak this
                # heap exists to avoid).
                self._deadline_armed_at = when
                self._deadline_token += 1
                Timeout(self.env, deadline,
                        self._deadline_token).callbacks.append(
                    self._sweep_deadlines)
        return reply_event

    def _sweep_deadlines(self, ev) -> None:
        """Expire every overdue pending call, then re-arm for the next
        deadline.  Entries whose call already completed were removed
        from ``_pending`` and are simply dropped here.  A timer whose
        token is stale was preempted by an earlier-armed sweeper and
        must do nothing: sweeping is harmless, but its re-arm would
        duplicate the live sweeper."""
        if ev._value != self._deadline_token:
            return  # preempted: the live sweeper covers the heap
        heap = self._deadline_heap
        now = self.env.now
        while heap and heap[0][0] <= now:
            _when, rid, op_name, host_id, deadline = heappop(heap)
            entry = self._pending.pop(rid, None)
            if entry is None:
                continue  # already answered
            self._watch_pending()
            event, _odef, _info = entry
            self.metrics.counter(names.ORB_TIMEOUTS).inc()
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

    # -- message handling ------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        try:
            # decode_message's struct.error wrapper is redundant here:
            # both except arms below already count a bad message.
            decoded = giop._decode_message_body(msg.payload)
        except SystemException:
            self.metrics.counter(names.ORB_BAD_MESSAGES).inc()
            return
        except Exception:
            # decode_message converts decoder errors to MARSHAL; this
            # is the last line of defence — a corrupted wire must never
            # crash the node's message handler.
            self.metrics.counter(names.ORB_BAD_MESSAGES).inc()
            return
        if type(decoded) is giop.MultiMessage:
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
                if type(sub) is giop.MultiMessage:  # no nesting
                    self.metrics.counter(names.ORB_BAD_MESSAGES).inc()
                    continue
                self._handle_decoded(sub, msg.src, len(frame))
            return
        self._handle_decoded(decoded, msg.src, len(msg.payload))

    def _handle_decoded(self, decoded, src: str, wire_size: int) -> None:
        """Admit and dispatch one logical message (request or reply)."""
        if isinstance(decoded, giop.RequestMessage):
            if (self.dispatch_limit is not None
                    and self._inflight >= self.dispatch_limit):
                self._shed(decoded, src)
                return
            self._inflight += 1
            if self.dispatch_watchers:
                self._watch_dispatch()
            info = None
            if self._server_interceptors:
                info = ServerRequestInfo(self, decoded, src, wire_size)
                for icpt in self._server_interceptors:
                    icpt.receive_request(info)
            if self._slots is None and self._dispatch_fast(decoded, src, info):
                return
            self.env.process(self._dispatch(decoded, src, info))
        else:
            self._complete(decoded, wire_size)

    def _shed(self, request: giop.RequestMessage, client: str) -> None:
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
            self._reply_system(client, request, TRANSIENT(
                f"dispatch table full ({self.dispatch_limit}) "
                f"on {self.host_id}",
                minor=MINOR_SHED, completed=COMPLETED_NO,
            ))
        else:
            self.metrics.counter(names.ORB_SHED_ONEWAY).inc()

    # -- server side -------------------------------------------------------------
    def _dispatch(self, request: giop.RequestMessage, client: str,
                  info: Optional[ServerRequestInfo]):
        """Process one admitted request (runs as a simulation process)."""
        try:
            yield from self._dispatch_body(request, client, info)
        finally:
            self._dispatch_done(info)

    def _dispatch_done(self, info: Optional[ServerRequestInfo]) -> None:
        """Close one admitted request, whatever its path and outcome:
        in-flight accounting, then ``finish_request`` in reverse order."""
        self._inflight -= 1
        if self.dispatch_watchers:
            self._watch_dispatch()
        if info is not None:
            info.end = self.env._now
            for icpt in reversed(self._server_interceptors):
                icpt.finish_request(info)

    def _run_generator(self, gen, info: Optional[ServerRequestInfo]):
        """Start a servant's generator as a process of its own and tell
        the interceptors, so calls it makes find this request."""
        proc = self.env.process(gen)
        if info is not None:
            for icpt in self._server_interceptors:
                hook = getattr(icpt, "child_process", None)
                if hook is not None:
                    hook(info, proc)
        return proc

    def _resolve_target(self, request: giop.RequestMessage):
        """Resolve (servant, odef) for *request*, with a fenced cache.

        Cache entries carry the owning POA's generation counter; any
        activate/deactivate bumps it, so a stale entry can never route
        around the adapter's fencing — it just falls through to the
        slow path and re-resolves.
        """
        key = (request.adapter, request.object_key, request.operation)
        cache = self._resolve_cache
        entry = cache.get(key)
        if entry is not None:
            poa, gen, servant, odef = entry
            if gen == poa._gen:
                return servant, odef
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
        if len(cache) >= 4096:
            cache.clear()
        cache[key] = (poa, poa._gen, servant, odef)
        return servant, odef

    def _dispatch_body(self, request: giop.RequestMessage, client: str,
                       info: Optional[ServerRequestInfo]):
        odef: Optional[OperationDef] = None
        try:
            servant, odef = self._resolve_target(request)
            method = getattr(servant, request.operation, None)
            if method is None:
                raise NO_IMPLEMENT(
                    f"{type(servant).__name__} lacks {request.operation!r}"
                )
            dec = CDRDecoder(request.args)
            args = op_codec(odef).decode_in(dec)

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

                prev, self.current_request = self.current_request, info
                try:
                    result = method(*args)
                finally:
                    self.current_request = prev
                if hasattr(result, "send") and hasattr(result, "throw"):
                    # Servant method is a generator: drive it to completion.
                    result = yield self._run_generator(result, info)
            finally:
                if slots is not None:
                    slots.release()

            self._complete_dispatch(request, client, odef, result, info)
        except Exception as exc:
            self._dispatch_error(request, client, odef, exc, info)

    def _complete_dispatch(self, request: giop.RequestMessage, client: str,
                           odef: OperationDef, result,
                           info: Optional[ServerRequestInfo]) -> None:
        """Count the dispatch and send the success reply (shared tail of
        the process and synchronous dispatch paths).  ``_reply`` is
        inlined: this is the one reply path every successful call takes."""
        self._ctr_dispatches.value += 1
        if not request.response_expected:
            return
        try:
            codec = odef._codec
        except AttributeError:
            codec = op_codec(odef)
        if not codec.out_plans:
            # No out params (the common shape): _encode_result inlined.
            pool = self._enc_pool
            enc = pool.pop() if pool else CDREncoder()
            codec.result_plan.encode(enc, result)
        else:
            enc = self._encode_result(odef, result)
        wire = giop.encode_reply(request.request_id, giop.NO_EXCEPTION,
                                 enc._buf)
        self._ctr_replies.value += 1
        if info is not None:
            info.reply_status = giop.NO_EXCEPTION
            info.reply_bytes = len(wire)
        self.network.send(self.host_id, client, "giop", wire, len(wire))
        enc.reset()
        pool = self._enc_pool
        if len(pool) < 8:
            pool.append(enc)

    def _dispatch_error(self, request: giop.RequestMessage, client: str,
                        odef: Optional[OperationDef], exc: Exception,
                        info: Optional[ServerRequestInfo]) -> None:
        """Map a dispatch-time exception to the reply it owes the client."""
        if isinstance(exc, UserException):
            if info is not None:
                info.exception = exc
            if not request.response_expected or odef is None:
                return
            if not any(tc.repo_id == exc.REPO_ID for tc in odef.raises):
                self._reply_system(client, request, UNKNOWN(
                    f"undeclared user exception {exc.REPO_ID}"
                ), info)
                return
            entry = exception_class(exc.REPO_ID)
            if entry is None:
                self._reply_system(client, request, UNKNOWN(
                    f"unregistered exception {exc.REPO_ID}"
                ), info)
                return
            _cls, tc = entry
            enc = self._acquire_encoder()
            enc.write_string(exc.REPO_ID)
            get_plan(tc).encode(enc, dict(zip(exc.FIELDS, exc.field_values())))
            self._reply(client, request, giop.USER_EXCEPTION, enc._buf, info)
            enc.reset()
            self._release_encoder(enc)
        elif isinstance(exc, SystemException):
            if info is not None:
                info.exception = exc
            if request.response_expected:
                self._reply_system(client, request, exc, info)
        else:  # servant bug -> UNKNOWN, as CORBA mandates
            self.metrics.counter(names.ORB_SERVANT_ERRORS).inc()
            if info is not None:
                info.exception = exc
            if request.response_expected:
                self._reply_system(client, request, UNKNOWN(repr(exc)), info)

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
            servant, odef = self._resolve_target(request)
            method = getattr(servant, request.operation, None)
            if method is None:
                raise NO_IMPLEMENT(
                    f"{type(servant).__name__} lacks {request.operation!r}"
                )
            code = getattr(method, "__code__", None)
            if code is None or code.co_flags & 0x20:
                return False  # CO_GENERATOR or unknowable: process path
            try:
                codec = odef._codec
            except AttributeError:
                codec = op_codec(odef)
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
        try:
            prev, self.current_request = self.current_request, info
            try:
                result = method(*args)
            finally:
                self.current_request = prev
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

    def _encode_result(self, odef: OperationDef, result) -> CDREncoder:
        """Marshal the reply body into a pooled encoder and return it.

        The caller frames ``enc._buf`` directly, then resets and
        releases the encoder — the body bytes are never snapshotted.
        """
        try:
            codec = odef._codec
        except AttributeError:
            codec = op_codec(odef)
        outs = codec.out_plans
        pool = self._enc_pool
        enc = pool.pop() if pool else CDREncoder()
        if not outs:
            codec.result_plan.encode(enc, result)
            return enc
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

    def _reply(self, client: str, request: giop.RequestMessage,
               status: int, body,
               info: Optional[ServerRequestInfo] = None) -> None:
        wire = giop.encode_reply(request.request_id, status, body)
        self._ctr_replies.value += 1
        if info is not None:
            info.reply_status = status
            info.reply_bytes = len(wire)
        self.network.send(self.host_id, client, "giop", wire, len(wire))

    def _reply_system(self, client: str, request: giop.RequestMessage,
                      exc: SystemException,
                      info: Optional[ServerRequestInfo] = None) -> None:
        enc = self._acquire_encoder()
        enc.write_string(exc.repo_id)
        enc.write_string(exc.reason or "")
        enc.write_ulong(exc.minor)
        enc.write_ulong(exc.completed)
        self._reply(client, request, giop.SYSTEM_EXCEPTION, enc._buf, info)
        enc.reset()
        self._release_encoder(enc)

    # -- client-side completion ---------------------------------------------------
    def _complete(self, reply: giop.ReplyMessage, wire_size: int = 0) -> None:
        entry = self._pending.pop(reply.request_id, None)
        if entry is None:
            self.metrics.counter(names.ORB_LATE_REPLIES).inc()
            return
        if self.pending_watchers:
            self._watch_pending()
        event, odef, info = entry
        if info is not None:
            info.reply_bytes = wire_size
        try:
            if reply.status == giop.NO_EXCEPTION:
                # No-out-params result decode inlined (the common shape).
                try:
                    codec = odef._codec
                except AttributeError:
                    codec = op_codec(odef)
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
        try:
            codec = odef._codec
        except AttributeError:
            codec = op_codec(odef)
        dec = CDRDecoder(body)
        result = codec.result_plan.decode(dec)
        outs = codec.out_plans
        if not outs:
            return result
        values = tuple(plan.decode(dec) for plan in outs)
        if codec.result_void:
            return values if len(values) > 1 else values[0]
        return (result,) + values

    # -- failure handling -----------------------------------------------------------
    def _on_host_crash(self, _host) -> None:
        """Fail every outstanding client request; the host is gone."""
        pending, self._pending = self._pending, {}
        if pending:
            self._watch_pending()
        for event, _odef, _info in pending.values():
            if not event.triggered:
                event.fail(COMM_FAILURE("host crashed")).defused()
        # Buffered pipeline frames die with the host: a crashed sender
        # must not flush stale oneways after restart.
        for chan in self._pipe_channels.values():
            chan.frames.clear()
            chan.nbytes = 0
            chan.armed = False
            chan.token += 1

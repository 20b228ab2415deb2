"""Layer drills: time a layer's public functions on captured inputs.

Drill corpora are **captured from the workload, not invented**: during
the warm-up slice a recorder sits on the workload's ``Network.send``
(the instance's public method, wrapped and removed again before the
window) and keeps the GIOP frames that crossed the wire.  The frames
are decoded with the program's own public codec against the
operations the workload names, which yields the TypeCodes and values
the codec drill replays — so ``orb.codec.drill_*`` on ``cscw_session``
measures the stroke ``Any`` and on ``rpc_mix`` the ``Sample`` struct
and the 4 KiB blob.

Every drill reports the **fastest** of several timed rounds: the work
is fixed and this box's noise only adds time (see measure.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.events.bus import EventBus
from repro.orb import giop
from repro.orb.cdr import Any, CDRDecoder, CDREncoder, decode_value, \
    encode_value
from repro.orb.compiled import get_plan
from repro.orb.core import ORB, InterfaceDef, Servant, op
from repro.orb.typecodes import TCKind, tc_any, tc_long
from repro.registry.federation.records import ProviderRecord, RecordStore
from repro.registry.federation.ring import ShardRing
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import SERVER, star

_now = time.perf_counter
ROUNDS = 7


def per_call_us(fn, calls_per_run: int, budget_s: float) -> float:
    """Microseconds per call of *fn* (which makes *calls_per_run*
    calls): the fastest of ``ROUNDS`` rounds filling *budget_s*."""
    if calls_per_run <= 0:
        return 0.0
    start = _now()
    fn()
    once = max(_now() - start, 1e-7)      # also the warm-up run
    repeats = max(1, int(budget_s / ROUNDS / once))
    samples = []
    for _ in range(ROUNDS):
        start = _now()
        for _ in range(repeats):
            fn()
        samples.append((_now() - start) / (repeats * calls_per_run))
    return min(samples) * 1e6


# -- capture ------------------------------------------------------------------

class WireRecorder:
    """Keeps the GIOP payloads a network sends while installed."""

    def __init__(self, network, limit: int = 6000) -> None:
        self.network = network
        self.limit = limit
        #: (src, dst, payload bytes) per wire message.
        self.messages: list = []

    def __enter__(self) -> "WireRecorder":
        send = self.network.send
        messages = self.messages
        limit = self.limit

        def recording_send(src, dst, port, payload, *args, **kwargs):
            if port == "giop" and len(messages) < limit:
                messages.append((src, dst, bytes(payload)))
            return send(src, dst, port, payload, *args, **kwargs)

        self.network.send = recording_send
        return self

    def __exit__(self, *exc) -> None:
        del self.network.send


@dataclass
class Corpus:
    """What one workload's warm-up put on the wire, decoded."""

    #: (src, dst, payload) wire messages as captured.
    messages: list = field(default_factory=list)
    #: logical frames (MSG_MULTI containers unpacked), decoded.
    requests: list = field(default_factory=list)
    replies: list = field(default_factory=list)
    n_frames: int = 0
    #: per request of a known operation: [(TypeCode, value), ...]
    request_values: list = field(default_factory=list)
    #: the subset that was marshalled: a marshal-once fan-out
    #: (``send_oneway_fanout``) puts one argument body on the wire in
    #: several frames, all decoded but only the first encoded.
    marshalled_values: list = field(default_factory=list)
    #: per successful reply to one: [(TypeCode, value)] or []
    reply_values: list = field(default_factory=list)


def build_corpus(messages: list, operations: dict,
                 marshal_once: tuple = ()) -> Corpus:
    corpus = Corpus(messages=messages)
    awaiting = {}          # (client host, request id) -> OperationDef
    last_body = {}         # sender -> (operation, args) it sent last
    for src, dst, payload in messages:
        decoded = giop.decode_message(payload)
        frames = ([giop.decode_message(f) for f in decoded.frames]
                  if isinstance(decoded, giop.MultiMessage) else [decoded])
        for frame in frames:
            corpus.n_frames += 1
            if isinstance(frame, giop.RequestMessage):
                corpus.requests.append(frame)
                odef = operations.get(frame.operation)
                if odef is None:
                    continue
                dec = CDRDecoder(frame.args)
                values = [(p.tc, get_plan(p.tc).decode(dec))
                          for p in odef.in_params()]
                corpus.request_values.append(values)
                body = (frame.operation, frame.args)
                if frame.operation not in marshal_once \
                        or last_body.get(src) != body:
                    corpus.marshalled_values.append(values)
                last_body[src] = body
                if frame.response_expected:
                    awaiting[(src, frame.request_id)] = odef
            else:
                corpus.replies.append(frame)
                odef = awaiting.pop((dst, frame.request_id), None)
                if odef is None or frame.status != giop.NO_EXCEPTION \
                        or odef.out_params():
                    continue
                if odef.result.kind is TCKind.VOID:
                    corpus.reply_values.append([])
                else:
                    value = get_plan(odef.result).decode(
                        CDRDecoder(frame.body))
                    corpus.reply_values.append([(odef.result, value)])
    return corpus


# -- sim.kernel ---------------------------------------------------------------

def drill_kernel(budget_s: float) -> float:
    """us per event through ``Environment.timeout`` + ``run``."""
    n = 2000

    def noop(_event) -> None:
        pass

    def one_run() -> None:
        env = Environment()
        for i in range(n):
            env.timeout(i * 1e-6).callbacks.append(noop)
        env.run()

    return per_call_us(one_run, n, budget_s)


# -- sim.network --------------------------------------------------------------

def drill_network(messages: list, topology, budget_s: float) -> float:
    """us per ``Network.send`` + delivery to a no-op handler, replaying
    the captured (src, dst, size) sequence on the workload's topology."""
    if not messages:
        return 0.0
    env = Environment()
    net = Network(env, topology)
    for host in topology.host_ids():
        net.interface(host).bind("giop", lambda _msg: None)
    sends = [(src, dst, payload, len(payload))
             for src, dst, payload in messages[:2000]]

    def one_run() -> None:
        for src, dst, payload, size in sends:
            net.send(src, dst, "giop", payload, size)
        env.run()

    return per_call_us(one_run, len(sends), budget_s)


# -- orb.giop -----------------------------------------------------------------

def drill_giop(corpus: Corpus, budget_s: float) -> dict:
    payloads = [payload for _s, _d, payload in corpus.messages]
    decode = giop.decode_message

    def decode_all() -> None:
        for payload in payloads:
            message = decode(payload)
            if type(message) is giop.MultiMessage:
                for frame in message.frames:
                    decode(frame)

    requests = [(r.request_id, r.response_expected,
                 giop.encode_request_prefix(r.host, r.adapter,
                                            r.object_key, r.operation),
                 r.args, r.service_context) for r in corpus.requests]

    def encode_requests() -> None:
        encode = giop.encode_request
        for rid, expected, prefix, args, context in requests:
            encode(rid, expected, prefix, args, context)

    replies = [(r.request_id, r.status, r.body) for r in corpus.replies]

    def encode_replies() -> None:
        encode = giop.encode_reply
        for rid, status, body in replies:
            encode(rid, status, body)

    third = budget_s / 3.0
    return {
        "decode_us": per_call_us(decode_all, corpus.n_frames, third),
        "encode_request_us": per_call_us(encode_requests, len(requests),
                                         third),
        "encode_reply_us": per_call_us(encode_replies, len(replies), third),
    }


# -- orb.codec ----------------------------------------------------------------

def _plans(value_lists: list) -> list:
    return [[(get_plan(tc), value) for tc, value in values]
            for values in value_lists]


def _encode_us(value_lists: list, budget_s: float) -> float:
    """us per message to encode each message's values into one pooled
    encoder (as the ORB does) over *value_lists*."""
    planned = _plans(value_lists)
    enc = CDREncoder()

    def encode_all() -> None:
        for pairs in planned:
            for plan, value in pairs:
                plan.encode(enc, value)
            enc.reset()

    return per_call_us(encode_all, len(planned), budget_s)


def _decode_us(value_lists: list, budget_s: float) -> tuple:
    """(us, encoded bytes) per message to decode *value_lists*."""
    if not value_lists:
        return 0.0, 0.0
    planned = _plans(value_lists)
    enc = CDREncoder()
    encoded = []
    for pairs in planned:
        for plan, value in pairs:
            plan.encode(enc, value)
        encoded.append(enc.take())
    decoders = [[plan.decode for plan, _v in pairs] for pairs in planned]

    def decode_all() -> None:
        for data, decodes in zip(encoded, decoders):
            dec = CDRDecoder(data)
            for decode in decodes:
                decode(dec)

    n = len(planned)
    return (per_call_us(decode_all, n, budget_s),
            sum(len(data) for data in encoded) / n)


def drill_codec(corpus: Corpus, budget_s: float) -> dict:
    """``get_plan(tc)`` handles on the workload's TypeCodes and values,
    per message and split by direction, plus the ``Any`` round trip."""
    slot = budget_s / 5.0
    req_enc = _encode_us(corpus.marshalled_values, slot)
    req_dec, req_bytes = _decode_us(corpus.request_values, slot)
    rep_enc = _encode_us(corpus.reply_values, slot)
    rep_dec, rep_bytes = _decode_us(corpus.reply_values, slot)
    n_req, n_rep = len(corpus.request_values), len(corpus.reply_values)
    total = max(1, n_req + n_rep)
    enc_us = (req_enc * n_req + rep_enc * n_rep) / total
    dec_us = (req_dec * n_req + rep_dec * n_rep) / total
    mean_bytes = (req_bytes * n_req + rep_bytes * n_rep) / total
    round_trip_us = enc_us + dec_us

    # Any round trip on the workload's own values: the stroke Any on
    # cscw_session as captured, elsewhere the captured value boxed.
    anys = []
    for values in (corpus.request_values + corpus.reply_values)[:256]:
        for tc, value in values:
            anys.append(value if tc.kind is TCKind.ANY else Any(tc, value))
    enc = CDREncoder()

    def any_round_trips() -> None:
        for boxed in anys:
            encode_value(enc, tc_any, boxed)
            decode_value(CDRDecoder(enc.take()), tc_any)

    return {
        "request_encode_us": req_enc, "request_decode_us": req_dec,
        "reply_encode_us": rep_enc, "reply_decode_us": rep_dec,
        "encode_us": enc_us, "decode_us": dec_us,
        "any_roundtrip_us": per_call_us(any_round_trips, len(anys), slot),
        "MB_per_s": (mean_bytes / round_trip_us) if round_trip_us else 0.0,
    }


# -- orb.core -----------------------------------------------------------------

_NULL = InterfaceDef("IDL:spine/Null:1.0", "Null", operations=[
    op("null", [("n", tc_long)], tc_long)])


class _NullServant(Servant):
    _interface = _NULL

    def null(self, n):
        return n


def drill_orb(kernel_us: float, budget_s: float) -> dict:
    """Two-host null call, and the part of it that is the ORB core's
    own: the call minus its kernel events, its two sends, its GIOP
    framing and its codec work, each timed on the call's own frames."""
    env = Environment()
    net = Network(env, star(1, hub_profile=SERVER))
    server = ORB(env, net, "hub")
    client = ORB(env, net, "h0")
    stub = client.stub(server.adapter("root").activate(_NullServant()),
                       _NULL)
    null = stub.null
    sync = client.sync
    n = 200

    def calls() -> None:
        for i in range(n):
            sync(null(i))

    with WireRecorder(net) as recorder:
        eid = env._eid
        calls()
        events_per_call = (env._eid - eid) / n
    per_call = per_call_us(calls, n, budget_s / 2.0)

    corpus = build_corpus(recorder.messages, dict(_NULL.operations))
    slice_s = budget_s / 8.0
    framing = drill_giop(corpus, slice_s)
    codec = drill_codec(corpus, slice_s)
    send_us = drill_network(corpus.messages, star(1, hub_profile=SERVER),
                            slice_s)
    # drill_network's send already includes one delivery event.
    others = (max(0.0, events_per_call - 2.0) * kernel_us
              + 2.0 * send_us
              + framing["encode_request_us"] + framing["encode_reply_us"]
              + 2.0 * framing["decode_us"]
              + codec["request_encode_us"] + codec["request_decode_us"]
              + codec["reply_encode_us"] + codec["reply_decode_us"])
    return {"us_per_call": per_call,
            "self_us_per_call": max(0.0, per_call - others)}


# -- events -------------------------------------------------------------------

def drill_events(budget_s: float) -> float:
    """us per ``EventBus.publish`` (+ its share of ``flush``) into a
    no-op batch subscriber."""
    env = Environment()
    bus = EventBus(env)
    bus.batch_subscribe("spine.drill", lambda _batch: None, max_batch=64)
    n = 64 * 16
    payloads = [f"e{i}" for i in range(n)]

    def publishes() -> None:
        publish = bus.publish
        for payload in payloads:
            publish("spine.drill", payload)
        bus.flush()

    return per_call_us(publishes, n, budget_s)


# -- registry.federation ------------------------------------------------------

def drill_registry(budget_s: float) -> dict:
    from spine.workloads import registry_churn as churn

    ring = ShardRing(vnodes=32)
    for host in churn.owner_hosts():
        ring.stage_add(host)
    ring.rebalance()
    keys = churn.REPO_IDS + [f"host:c{i}h3" for i in range(churn.CLUSTERS)]

    def owners() -> None:
        for key in keys:
            ring.owners(key, churn.REPLICATION)

    # Pre-built reports at rising epochs, so every apply wins the merge
    # as a live re-publish does; a fresh store once they are used up.
    hosts = [h for i in range(churn.SERVICES)
             for h in churn.provider_hosts(i)]
    reports = [[ProviderRecord(
        repo_id=churn.REPO_IDS[i // 2], host=host, component="SpineSvc",
        version="1.0.0", running_ior="", mobility="mobile",
        free_cpu=100.0, free_memory=100.0, is_tiny=False,
        epoch=float(epoch)) for i, host in enumerate(hosts)]
        for epoch in range(1, 65)]
    state = {"store": RecordStore(), "next": 0}

    def applies() -> None:
        if state["next"] == len(reports):
            state["store"], state["next"] = RecordStore(), 0
        store = state["store"]
        batch = reports[state["next"]]
        state["next"] += 1
        now = batch[0].epoch
        for record in batch:
            store.apply(record, now)

    half = budget_s / 2.0
    return {"ring_owners_us": per_call_us(owners, len(keys), half),
            "record_apply_us": per_call_us(applies, len(hosts), half)}

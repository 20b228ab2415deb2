"""Deterministic wire-fuzz harness for the GIOP/CDR decoder.

The robustness contract of :func:`repro.orb.giop.decode_message` is:
for *any* byte string, it either returns a message or raises a
:class:`~repro.orb.exceptions.SystemException` — never a raw Python
exception, and never an allocation larger than the input justifies.
This module checks that contract mechanically: take valid request and
reply frames, mutate them with seeded byte-level operators (the same
damage a hostile or flaky wire inflicts), and decode every mutant.

Everything is driven by ``numpy`` generators seeded per run, so a
failing seed/iteration pair reproduces exactly.  Used by
``tests/orb/test_wire_fuzz.py`` (``fuzz`` marker, ``make fuzz``).  The
corpus seed names the fuzz campaign, not a simulation, so the
generators are built here rather than drawn from
:class:`~repro.sim.rng.RngRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import names
from repro.obs.trace import TRACE_CONTEXT_ID, TRACE_SLOT
from repro.orb import codegen, giop
from repro.orb.cdr import (Any, CDRDecoder, CDREncoder, encode_typecode,
                           encode_value)
from repro.orb.core import ORB, Servant
from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.orb.model import InterfaceDef, op
from repro.orb.typecodes import (
    array_tc,
    enum_tc,
    sequence_tc,
    struct_tc,
    tc_any,
    tc_boolean,
    tc_double,
    tc_long,
    tc_objref,
    tc_octet,
    tc_octetseq,
    tc_short,
    tc_string,
    tc_void,
    union_tc,
)
from repro.sim.kernel import Environment
from repro.sim.network import Message, Network
from repro.sim.topology import star


#: A trace slot as the tracing interceptor frames it.
_TRACE_SLOT = (TRACE_CONTEXT_ID, TRACE_SLOT.pack(1, 2))


def _request(service_context: tuple) -> giop.RequestMessage:
    return giop.RequestMessage(
        7, True, "h1", "node", "registry", "lookup",
        args=b"\x00\x00\x00\x04ping", service_context=service_context)


def corpus() -> list[bytes]:
    """Canonical valid wire frames covering both message kinds."""
    requests = [
        _request((_TRACE_SLOT, (0xBEEF, b"opaque"))),
        giop.RequestMessage(
            request_id=2 ** 31, response_expected=False, host="hub",
            adapter="app", object_key="k" * 40, operation="_get_value",
            args=bytes(range(256)), service_context=(),
        ),
    ]
    replies = [
        giop.ReplyMessage(request_id=7, status=giop.NO_EXCEPTION,
                          body=b"\x00\x00\x00\x2a"),
        giop.ReplyMessage(request_id=9, status=giop.SYSTEM_EXCEPTION,
                          body=b"\x00\x00\x00\x01x\x00" * 6),
    ]
    return [m.encode() for m in requests] + [m.encode() for m in replies]


# -- mutation operators --------------------------------------------------------
# Each takes (bytearray, rng) and returns mutated bytes.  They model the
# damage classes of WireFaultModel plus adversarial field stomps.

def _bit_flips(data: bytearray, rng) -> bytes:
    for _ in range(1 + int(rng.integers(0, 8))):
        pos = int(rng.integers(0, len(data)))
        data[pos] ^= 1 << int(rng.integers(0, 8))
    return bytes(data)


def _truncate(data: bytearray, rng) -> bytes:
    return bytes(data[: int(rng.integers(0, len(data)))])


def _extend(data: bytearray, rng) -> bytes:
    tail = rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8)
    return bytes(data) + tail.tobytes()


def _zero_run(data: bytearray, rng) -> bytes:
    start = int(rng.integers(0, len(data)))
    end = min(len(data), start + int(rng.integers(1, 16)))
    data[start:end] = b"\x00" * (end - start)
    return bytes(data)


def _ff_run(data: bytearray, rng) -> bytes:
    start = int(rng.integers(0, len(data)))
    end = min(len(data), start + int(rng.integers(1, 16)))
    data[start:end] = b"\xff" * (end - start)
    return bytes(data)


def _ulong_stomp(data: bytearray, rng) -> bytes:
    """Overwrite an aligned ulong with an adversarial count/length."""
    if len(data) < 8:
        return bytes(data)
    pos = 4 * int(rng.integers(0, len(data) // 4))
    value = int(rng.choice([0, 1, 2 ** 16, 2 ** 31 - 1, 2 ** 32 - 1]))
    data[pos:pos + 4] = value.to_bytes(4, "big")
    return bytes(data)


def _splice(data: bytearray, rng) -> bytes:
    """Copy one random slice of the frame over another."""
    n = int(rng.integers(1, max(2, len(data) // 2)))
    src = int(rng.integers(0, len(data) - n + 1))
    dst = int(rng.integers(0, len(data) - n + 1))
    data[dst:dst + n] = data[src:src + n]
    return bytes(data)


def _garbage(data: bytearray, rng) -> bytes:
    """Replace the whole frame with random bytes of similar size."""
    n = int(rng.integers(1, 2 * len(data)))
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()


MUTATORS = (_bit_flips, _truncate, _extend, _zero_run, _ff_run,
            _ulong_stomp, _splice, _garbage)


def mutate(data: bytes, rng) -> bytes:
    """Apply 1-3 random mutation operators to *data*."""
    out = data
    for _ in range(1 + int(rng.integers(0, 3))):
        if not out:
            break
        mutator = MUTATORS[int(rng.integers(0, len(MUTATORS)))]
        out = mutator(bytearray(out), rng)
    return out


# -- the harness ---------------------------------------------------------------

@dataclass
class FuzzReport:
    """Outcome tally of one fuzz run."""

    seed: int
    iterations: int = 0
    decoded: int = 0            # mutant still parsed as a message
    rejected: int = 0           # clean SystemException
    #: (iteration, mutant bytes, exception) for every contract breach:
    #: a non-SystemException escape or an over-allocation.
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def hostile_requests() -> list[tuple[bytes, bool]]:
    """(wire, decodes) seeds aimed at the service-context grammar: three
    that must be refused as they stand, then two well-formed frames
    whose slots no reader understands, carried untouched."""
    one_slot = _request((_TRACE_SLOT,)).encode()      # ends: count, slot
    huge_count = one_slot[:-20] + b"\xff\xff\xff\xff" + one_slot[-16:]
    long_slot = one_slot[:-12] + b"\x00\x01\x00\x00" + one_slot[-8:]
    over_cap = _request(tuple(
        (i, b"") for i in range(giop.MAX_SERVICE_CONTEXT_SLOTS + 1))).encode()
    short_trace = _request(((_TRACE_SLOT[0], _TRACE_SLOT[1][:7]),)).encode()
    unknown_id = _request(((0xFFFFFFFF, b"\x00" * 8),)).encode()
    return [(huge_count, False), (long_slot, False), (over_cap, False),
            (short_trace, True), (unknown_id, True)]


def check_bounded(message, data: bytes) -> None:
    """Assert the decoder never allocated more than the input justifies.

    Every decoded byte string and every collection slot was read from
    the wire, so its size is bounded by the frame length.
    """
    limit = len(data)
    if isinstance(message, giop.RequestMessage):
        for s in (message.host, message.adapter, message.object_key,
                  message.operation):
            if len(s.encode("utf-8")) > limit:
                raise AssertionError(
                    f"decoded string of {len(s)} chars from a "
                    f"{limit}-byte frame"
                )
        for _context_id, context_data in message.service_context:
            if len(context_data) > limit:
                raise AssertionError(
                    f"decoded {len(context_data)}-byte service-context "
                    f"slot from a {limit}-byte frame"
                )
        if len(message.args) > limit:
            raise AssertionError(
                f"decoded {len(message.args)}-byte args from a "
                f"{limit}-byte frame"
            )
        if len(message.service_context) > giop.MAX_SERVICE_CONTEXT_SLOTS:
            raise AssertionError(
                f"{len(message.service_context)} service-context slots "
                f"exceed the cap"
            )
    else:
        if len(message.body) > limit:
            raise AssertionError(
                f"decoded {len(message.body)}-byte body from a "
                f"{limit}-byte frame"
            )


_FZ_POINT = struct_tc("FzPoint", [("x", tc_double), ("y", tc_double)])

#: Representative TypeCodes for the generated decoders, with a valid
#: sample value each; ``codec_corpus`` fuzzes the decoder
#: :func:`repro.orb.codegen.generate` builds for each.
_CODEC_SAMPLES = [
    (struct_tc("FzSample", [
        ("id", tc_long),
        ("name", tc_string),
        ("path", sequence_tc(_FZ_POINT)),
    ]), {"id": 7, "name": "probe", "path": [{"x": 1.0, "y": 2.0},
                                            {"x": 3.0, "y": 4.0}]}),
    (struct_tc("FzMixed", [
        ("flag", tc_boolean),
        ("tag", enum_tc("FzColor", ["red", "green", "blue"])),
        ("blob", tc_octetseq),
        ("grid", array_tc(tc_short, 4)),
        ("names", sequence_tc(tc_string)),
    ]), {"flag": True, "tag": 2, "blob": b"\x01\x02\x03",
         "grid": [1, -2, 3, -4], "names": ["a", "bb"]}),
    (union_tc("FzEither", tc_long, [
        (1, "num", tc_long),
        (2, "text", tc_string),
        (None, "raw", tc_octetseq),
    ], default_index=2), (2, "hello")),
    (sequence_tc(sequence_tc(tc_octet)), [b"ab", b"", b"xyz"]),
    # any/objref: generated call-outs that decode a TypeCode (or an
    # IOR) off the hostile wire before the value.
    (tc_any, Any(_FZ_POINT, {"x": 1.0, "y": 2.0})),
    (struct_tc("FzBoxed", [
        ("seq", tc_long),
        ("payload", tc_any),
        ("tail", tc_short),
    ]), {"seq": 3, "payload": Any(sequence_tc(tc_string), ["a", "bb"]),
         "tail": -1}),
    (sequence_tc(tc_any), [Any(tc_long, 5), Any(tc_string, "s"),
                           Any(_FZ_POINT, {"x": 0.5, "y": -0.5})]),
    (struct_tc("FzHandle", [
        ("peer", tc_objref),
        ("gen", tc_long),
    ]), {"peer": IOR("IDL:fz/Peer:1.0", "h1", "node", "k7"), "gen": 2}),
    (union_tc("FzMaybe", tc_long, [
        (1, "boxed", tc_any),
        (2, "num", tc_long),
    ]), (1, Any(tc_double, 2.5))),
    # The federation ``gossip`` body: struct sequences for the records
    # and the owner beacons.
    (struct_tc("FzGossip", [
        ("records", sequence_tc(struct_tc("FzRecord", [
            ("repo_id", tc_string), ("host", tc_string),
            ("component", tc_string), ("version", tc_string),
            ("running_ior", tc_string), ("mobility", tc_string),
            ("free_cpu", tc_double), ("free_memory", tc_double),
            ("is_tiny", tc_boolean), ("epoch", tc_double),
            ("retired", tc_boolean)]))),
        ("beacons", sequence_tc(struct_tc("FzBeacon", [
            ("host", tc_string), ("epoch", tc_double),
            ("alive", tc_boolean)]))),
    ]), {"records": [{"repo_id": "IDL:fz/Svc:1.0", "host": "c0h1",
                      "component": "Svc", "version": "1.0",
                      "running_ior": "", "mobility": "mobile",
                      "free_cpu": 2.0, "free_memory": 64.0,
                      "is_tiny": False, "epoch": 4.5, "retired": False}],
         "beacons": [{"host": "c0h0", "epoch": 5.0, "alive": True},
                     {"host": "c1h4", "epoch": 3.5, "alive": False}]}),
]


def codec_corpus() -> list[tuple]:
    """(decode_fn, valid encoded bytes) pairs for the generated decoders."""
    pairs = []
    for tc, value in _CODEC_SAMPLES:
        generated = codegen.generate(tc, 0)
        enc = CDREncoder()
        encode_value(enc, tc, value)
        pairs.append((generated[1], enc.getvalue()))
    return pairs


def hostile_corpus() -> list[tuple]:
    """(decode_fn, wire) seeds that must be refused as they stand: an
    ``any`` whose TypeCode is a 2^28-element array of elements that
    occupy no wire bytes, so only the decoder's own bound stops the loop."""
    dec_any = codegen.generate(tc_any, 0)[1]
    pairs = []
    for content in (tc_void, struct_tc("FzEmpty", [])):
        enc = CDREncoder()
        encode_typecode(enc, array_tc(content, 2 ** 28))
        pairs.append((dec_any, enc.getvalue() + bytes(16)))
    return pairs


def _leaf_budget(value, limit: int) -> int:
    """Spend ``limit`` down by the size of *value*; raises when the
    decoded value is larger than the input frame could justify.

    Every decoded leaf consumed at least one wire byte (the smallest
    CDR leaf is an octet/boolean/char) and every string or byte slab
    consumed at least its own length, so a valid decode can never
    exhaust a budget equal to the frame length.
    """
    if isinstance(value, (bytes, bytearray, str)):
        limit -= max(1, len(value))
    elif isinstance(value, Any):
        # The TypeCode tag cost a byte; the payload is charged in full.
        limit = _leaf_budget(value.value, limit - 1)
    elif isinstance(value, dict):
        for member in value.values():
            limit = _leaf_budget(member, limit)
    elif isinstance(value, (list, tuple)):
        for member in value:
            limit = _leaf_budget(member, limit)
    else:
        limit -= 1
    if limit < 0:
        raise AssertionError("decoded value larger than its input frame")
    return limit


def check_value_bounded(value, data: bytes) -> None:
    """Assert a codegen-decoded *value* is bounded by the frame size."""
    # +8 slack: the outermost value may decode from a frame whose
    # fixed leaves were packed tighter than one byte per leaf bound.
    _leaf_budget(value, len(data) + 8)


def run_codec_fuzz(seed: int, iterations: int = 2000) -> FuzzReport:
    """Fuzz the *generated* decoders the way :func:`run_fuzz` fuzzes
    the GIOP layer: mutate valid encodings, decode through the codegen
    tier, demand SystemException-or-bounded-value for every mutant."""
    rng = np.random.default_rng(seed)
    pairs = codec_corpus() + hostile_corpus()
    report = FuzzReport(seed=seed)
    for i in range(iterations):
        dec_fn, base = pairs[int(rng.integers(0, len(pairs)))]
        mutant = mutate(base, rng)
        report.iterations += 1
        try:
            value = dec_fn(CDRDecoder(mutant))
        except SystemException:
            report.rejected += 1
            continue
        except BaseException as exc:  # contract breach: raw escape
            report.failures.append((i, mutant, exc))
            continue
        try:
            check_value_bounded(value, mutant)
        except AssertionError as exc:
            report.failures.append((i, mutant, exc))
            continue
        report.decoded += 1
    return report


def run_fuzz(seed: int, iterations: int = 2000) -> FuzzReport:
    """Mutate-and-decode *iterations* frames; tally the outcomes.

    Never raises for decoder misbehaviour — contract breaches are
    collected in :attr:`FuzzReport.failures` so a test can show every
    offending byte string at once.
    """
    rng = np.random.default_rng(seed)
    frames = corpus() + [wire for wire, _decodes in hostile_requests()]
    report = FuzzReport(seed=seed)
    for i in range(iterations):
        base = frames[int(rng.integers(0, len(frames)))]
        mutant = mutate(base, rng)
        report.iterations += 1
        try:
            message = giop.decode_message(mutant)
        except SystemException:
            report.rejected += 1
            continue
        except BaseException as exc:  # contract breach: raw escape
            report.failures.append((i, mutant, exc))
            continue
        try:
            check_bounded(message, mutant)
        except AssertionError as exc:
            report.failures.append((i, mutant, exc))
            continue
        report.decoded += 1
    return report


def _oneway_sink():
    """A listener serving one zero-cost oneway per codec sample, each
    operation's clean argument body, and the list its servant appends
    every value it is handed to."""
    env = Environment()
    orb = ORB(env, Network(env, star(1)), "hub")
    ops = [op(f"fz{i}", [("value", tc)], oneway=True, cpu_cost=0.0)
           for i, (tc, _value) in enumerate(_CODEC_SAMPLES)]
    got: list = []

    def record(self, value) -> None:
        got.append(value)

    sink = type("FzSink", (Servant,), {
        "_interface": InterfaceDef("IDL:fz/Sink:1.0", "FzSink", ops),
        **{odef.name: record for odef in ops}})()
    ior = orb.adapter("fz").activate(sink)
    bodies = []
    for odef, (_tc, value) in zip(ops, _CODEC_SAMPLES):
        enc = CDREncoder()
        odef.codec().encode_in(enc, [value])
        bodies.append(enc.getvalue())
    return orb, ior, ops, bodies, got


def _deliver_oneway(orb, ior, odef, args: bytes, got: list) -> list:
    """Frame *args* as a oneway to *odef*, hand it to *orb*'s listener
    and return what the servant was handed; a raw error inside the
    dispatch (booked as a servant error) raises AssertionError."""
    frame = giop.RequestMessage(1, False, ior.host_id, ior.adapter,
                                ior.object_key, odef.name, args).encode()
    errors = orb.metrics.counter(names.ORB_SERVANT_ERRORS)
    before = errors.value
    got.clear()
    orb.listener.on_message(
        Message(0, "h0", ior.host_id, "giop", frame, len(frame)))
    if errors.value != before:
        raise AssertionError("raw error inside the dispatch")
    return list(got)


def run_oneway_fuzz(seed: int, iterations: int = 2000) -> FuzzReport:
    """Fuzz the oneway ring (``OperationCodec.decode_oneway``): each
    mutated argument body is framed as a oneway to its operation and
    delivered to a listener between two clean copies of its body.

    A breach is an exception out of the listener, a raw error inside
    the dispatch, a mutant value that is unbounded or differs from a
    plain decode, or a clean copy whose value differs from a plain
    decode of the clean body.  A mutant the dispatch refuses with a
    SystemException hands the servant nothing and counts as rejected."""
    rng = np.random.default_rng(seed)
    orb, ior, ops, bodies, got = _oneway_sink()
    report = FuzzReport(seed=seed)
    for i in range(iterations):
        k = int(rng.integers(0, len(ops)))
        odef, body = ops[k], bodies[k]
        mutant = mutate(body, rng)
        report.iterations += 1
        try:
            clean, bad, again = [_deliver_oneway(orb, ior, odef, args, got)
                                 for args in (body, mutant, body)]
            plain = odef.codec().decode_in(CDRDecoder(body))
            if clean != plain or again != plain:
                raise AssertionError(f"clean copies decoded {clean!r} and "
                                     f"{again!r}, plainly {plain!r}")
            if bad:
                check_value_bounded(bad[0], mutant)
                # By repr: a mutated double may be a NaN, unequal to itself.
                if repr(bad) != repr(odef.codec().decode_in(
                        CDRDecoder(mutant))):
                    raise AssertionError("mutant differs from a plain decode")
        except Exception as exc:  # contract breach
            report.failures.append((i, mutant, exc))
            continue
        if bad:
            report.decoded += 1
        else:
            report.rejected += 1
    return report

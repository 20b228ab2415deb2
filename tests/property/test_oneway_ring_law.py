"""The oneway ring: one body fanned out to k receivers is decoded at
most twice, and every receiver still owns what it gets.

``ORB.send_oneway_fanout`` marshals one argument body for many
receivers; ``OperationCodec.decode_oneway`` remembers the last
``compiled.ONEWAY_RING`` distinct bodies so the copies after the second
are copied from a private decoded value instead of decoded again.  The
law, for any in-parameter TypeCodes and values (the ``_typed_values``
strategy of the codec equivalence laws), k <= 8 receivers of one body
and 0-6 other bodies of the same operation between its copies:

- every receiver's arguments equal a plain decode of the body;
- no two receivers' values share a list, dict, ``Any`` or union tuple;
- mutating receiver i's value never changes what receiver i + 1 gets;
- a corrupted copy raises the plain decoder's class (and is not
  remembered), and a later clean copy still decodes equal;
- the ring never holds more than ``ONEWAY_RING`` entries.

The count case drives the real path: eight sink ORBs receiving one
``push_batch`` body from ``send_oneway_fanout`` run its generated
decoders twice between them.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.events.remote import EVENT_SINK_IFACE
from repro.orb import codegen, compiled
from repro.orb.cdr import Any, CDRDecoder, CDREncoder
from repro.orb.core import ORB, Servant
from repro.orb.exceptions import SystemException
from repro.orb.model import op
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import star

from test_cdr_properties import _typed_values, _typed_values_of


@st.composite
def _bursts(draw):
    """(codec, body, other bodies, k, gaps): an operation over 1-3 drawn
    in-parameters, the body under test, up to six other bodies of the
    same operation, and per receiver the indices of the others that
    arrive just before it."""
    pairs = draw(st.lists(_typed_values(), min_size=1, max_size=3))
    tcs = [tc for tc, _value in pairs]
    codec = op("ring_law", [(f"p{i}", tc) for i, tc in enumerate(tcs)],
               oneway=True).codec()
    body = _encode(codec, [value for _tc, value in pairs])
    others = [_encode(codec, [draw(_typed_values_of(tc, 2))[1]
                              for tc in tcs])
              for _ in range(draw(st.integers(0, 6)))]
    k = draw(st.integers(1, 8))
    gaps = [draw(st.lists(st.integers(0, max(len(others) - 1, 0)),
                          max_size=6 if others else 0))
            for _ in range(k)]
    return codec, body, others, k, gaps


def _encode(codec, args) -> bytes:
    enc = CDREncoder()
    codec.encode_in(enc, args)
    return enc.getvalue()


def _plain(codec, body):
    """("ok", args) or ("err", SystemException class) of a plain decode."""
    try:
        return "ok", tuple(codec.decode_in(CDRDecoder(body)))
    except SystemException as exc:
        return "err", type(exc)


def _through_ring(codec, body):
    try:
        return "ok", tuple(codec.decode_oneway(body))
    except SystemException as exc:
        return "err", type(exc)


def _containers(value, out: list) -> list:
    """Every list, dict, ``Any`` and (union) tuple inside *value*."""
    if isinstance(value, (list, tuple)):
        out.append(value)
        for item in value:
            _containers(item, out)
    elif isinstance(value, dict):
        out.append(value)
        for item in value.values():
            _containers(item, out)
    elif isinstance(value, Any):
        out.append(value)
        _containers(value.value, out)
    return out


def _wreck(value) -> None:
    """Mutate every container reachable from *value* in place."""
    for box in _containers(value, []):
        if isinstance(box, list):
            box.append("wrecked")
        elif isinstance(box, dict):
            box["wrecked"] = True
        elif isinstance(box, Any):
            box.value = "wrecked"


def _deliver(codec, body, expect) -> tuple:
    got = _through_ring(codec, body)
    assert got == expect
    assert len(codec._ring) <= compiled.ONEWAY_RING
    return got


@given(_bursts(), st.data())
@settings(max_examples=300, deadline=None)
def test_fanned_out_body_law(burst, data):
    codec, body, others, k, gaps = burst
    expect = _plain(codec, body)
    assert expect[0] == "ok"
    seen_boxes: dict[int, int] = {}
    kept = []       # every container stays alive, so no id is reused
    for i in range(k):
        for j in gaps[i]:
            _deliver(codec, others[j], _plain(codec, others[j]))
        _ok, args = _deliver(codec, body, expect)
        for value in args:
            boxes = _containers(value, [])
            kept.extend(boxes)
            for box in boxes:
                owner = seen_boxes.setdefault(id(box), i)
                assert owner == i, (
                    f"receivers {owner} and {i} share {box!r}")
        # Receiver i owns its value: wrecking it must not reach i + 1
        # (checked by the next delivery's equality with the plain decode).
        for value in args:
            _wreck(value)

    # A corrupted copy of the body raises what a plain decode raises and
    # is not remembered; the clean body still decodes equal afterwards.
    cut = body[:data.draw(st.integers(0, max(len(body) - 1, 0)))]
    flipped = bytearray(body)
    if flipped:
        at = data.draw(st.integers(0, len(flipped) - 1))
        flipped[at] ^= 1 << data.draw(st.integers(0, 7))
    for bad in (cut, bytes(flipped)):
        plain = _plain(codec, bad)
        for _ in range(2):
            _deliver(codec, bad, plain)
        if plain[0] == "err":
            assert bad not in codec._ring
        _deliver(codec, body, expect)


class _Keeper(Servant):
    """Keeps every ``push_batch`` data list it is handed."""

    _interface = EVENT_SINK_IFACE

    def __init__(self) -> None:
        self.lists: list = []

    def push(self, topic: str, data: str) -> None:
        raise AssertionError("push_batch only")

    def push_batch(self, topic: str, data: list) -> None:
        self.lists.append(data)


def test_eight_receivers_run_the_generated_decoders_twice():
    env = Environment()
    net = Network(env, star(8))
    hub = ORB(env, net, "hub")
    sinks = [_Keeper() for _ in range(8)]
    iors = [ORB(env, net, f"h{k}").adapter("sink").activate(sink)
            for k, sink in enumerate(sinks)]
    push_batch = EVENT_SINK_IFACE.operations["push_batch"]
    codec = push_batch.codec()
    # The ring is per operation and process-wide: a body no other test
    # sends starts unseen.
    data = ["ring-law: count case", "stroke", "stroke"]
    before = codegen.stats_snapshot()["decode_calls"]
    hub.send_oneway_fanout(iors, push_batch, ["ring.law", data])
    env.run()
    runs = codegen.stats_snapshot()["decode_calls"] - before
    # One generated-decoder call per in-parameter per decode of the body.
    assert runs == 2 * len(codec.in_plans)
    got = [lst for sink in sinks for lst in sink.lists]
    assert got == [data] * 8
    assert len({id(lst) for lst in got}) == 8

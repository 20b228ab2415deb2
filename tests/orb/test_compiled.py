"""Tests for the CDR codec plans and the invocation fast path.

Covers the plan cache (hit counters during a standard invocation, no
growth under freshly decoded ``any`` TypeCodes), the max-nesting edge
cases where the fast path must agree with the interpreter's dynamic
depth limit, misaligned enclosing encapsulations, and the
pooled-encoder plumbing (``take``/``reset``).
"""

import gc
import time

import pytest

from repro.orb import codegen, compiled
from repro.orb.cdr import (
    Any,
    CDRDecoder,
    CDREncoder,
    decode_typecode,
    decode_value,
    encode_typecode,
    encode_value,
)
from repro.orb.compiled import CodecPlan, get_plan
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM, MARSHAL, SystemException
from repro.orb.typecodes import (
    TCKind,
    TypeCode,
    alias_tc,
    array_tc,
    enum_tc,
    sequence_tc,
    struct_tc,
    tc_any,
    tc_boolean,
    tc_char,
    tc_double,
    tc_long,
    tc_octet,
    tc_short,
    tc_string,
    tc_void,
    union_tc,
)
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import star
from tests.oracles.cdr_interp import (
    decode_value_interp,
    encode_value_interp,
    read_fixed,
    write_fixed,
)
from tests.oracles.codec import encode_one

POINT = struct_tc("Point", [("x", tc_double), ("y", tc_double)])
MIXED = struct_tc("Mixed", [
    ("flag", tc_boolean),
    ("id", tc_long),
    ("name", tc_string),
    ("ratio", tc_double),
    ("tail", sequence_tc(POINT)),
])
MIXED_VALUE = {
    "flag": True,
    "id": 7,
    "name": "mixed",
    "ratio": 0.5,
    "tail": [{"x": 1.0, "y": 2.0}, {"x": 3.0, "y": 4.0}],
}


def both_encodings(tc, value, prefix=0):
    """Encode via interpreter and compiled plan at offset *prefix*."""
    e_ref = CDREncoder()
    e_fast = CDREncoder()
    for i in range(prefix):
        write_fixed(e_ref, TCKind.OCTET, i)
        write_fixed(e_fast, TCKind.OCTET, i)
    encode_value_interp(e_ref, tc, value)
    get_plan(tc).encode(e_fast, value)
    return e_ref.getvalue(), e_fast.getvalue()


class TestPlanEquivalence:
    @pytest.mark.parametrize("tc,value", [
        (POINT, {"x": 1.5, "y": -2.5}),
        (MIXED, MIXED_VALUE),
        (sequence_tc(tc_double), [0.0, 1.0, 2.0]),
        (sequence_tc(tc_short), [-3, 0, 3]),
        (sequence_tc(tc_char), list("abc")),
        (array_tc(tc_long, 4), [1, 2, 3, 4]),
        (array_tc(POINT, 2), [{"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0}]),
        (enum_tc("Color", ["red", "green"]), "green"),
        (alias_tc("Name", tc_string), "aliased"),
        (tc_any, Any(POINT, {"x": 9.0, "y": 8.0})),
        (union_tc("U", tc_long,
                  [(1, "i", tc_long), (None, "d", tc_double)],
                  default_index=1), (1, 42)),
        (struct_tc("V", [("pad", tc_octet), ("v", tc_void)]),
         {"pad": 1, "v": None}),
    ])
    def test_bytes_and_values_match(self, tc, value):
        for prefix in range(8):
            ref, fast = both_encodings(tc, value, prefix)
            assert ref == fast, f"byte mismatch at prefix {prefix}"
            d_ref = CDRDecoder(ref)
            d_fast = CDRDecoder(fast)
            for _ in range(prefix):
                read_fixed(d_ref, TCKind.OCTET)
                read_fixed(d_fast, TCKind.OCTET)
            v_ref = decode_value_interp(d_ref, tc)
            v_fast = get_plan(tc).decode(d_fast)
            assert v_ref == v_fast
            assert d_ref._pos == d_fast._pos

    def test_struct_attribute_object(self):
        class P:
            x = 3.0
            y = 4.0
        ref, fast = both_encodings(POINT, P())
        assert ref == fast

    def test_misaligned_enclosing_encapsulation(self):
        """A value encoded inside an encapsulation starts a fresh
        alignment stream even when the enclosing stream is misaligned."""
        inner_ref, inner_fast = both_encodings(POINT, {"x": 1.0, "y": 2.0})
        assert inner_ref == inner_fast
        outer = CDREncoder()
        outer.write_boolean(True)        # misalign the outer stream
        outer.write_encapsulation(inner_fast)
        dec = CDRDecoder(outer.getvalue())
        assert dec.read_boolean()
        body = CDRDecoder(dec.read_encapsulation())
        assert get_plan(POINT).decode(body) == {"x": 1.0, "y": 2.0}


class TestPlanErrors:
    def test_bad_primitive_rejected(self):
        with pytest.raises(BAD_PARAM):
            encode_one(tc_short, 2 ** 20)
        with pytest.raises(BAD_PARAM):
            encode_one(POINT, {"x": "nope", "y": 1.0})

    def test_char_validation(self):
        with pytest.raises(BAD_PARAM):
            encode_one(struct_tc("C", [("c", tc_char)]), {"c": "ab"})

    def test_struct_member_validation(self):
        with pytest.raises(BAD_PARAM):
            encode_one(POINT, {"x": 1.0})
        with pytest.raises(BAD_PARAM):
            encode_one(POINT, {"x": 1.0, "y": 2.0, "z": 3.0})

    def test_enum_validation(self):
        tc = enum_tc("E", ["a"])
        with pytest.raises(BAD_PARAM):
            encode_one(tc, "zzz")
        with pytest.raises(BAD_PARAM):
            encode_one(tc, 4)

    def test_union_validation(self):
        tc = union_tc("U", tc_long, [(1, "i", tc_long)])
        with pytest.raises(BAD_PARAM):
            encode_one(tc, (9, 1))  # no arm, no default
        with pytest.raises(BAD_PARAM):
            encode_one(tc, 42)      # not a pair

    def test_batched_sequence_garbage_count(self):
        """A bogus huge element count must fail fast, not allocate."""
        tc = sequence_tc(tc_double)
        with pytest.raises(BAD_PARAM):
            get_plan(tc).decode(CDRDecoder(b"\xff\xff\xff\xff" + b"\x00" * 8))

    def test_hostile_any_array_length_fails_fast(self):
        """An array length arrives off the wire when the TypeCode rides
        inside an any; a huge one must be refused before any O(length)
        format is built, with the interpreter's error class."""
        hostile = TypeCode(TCKind.ARRAY, content_type=tc_long,
                           length=2 ** 28)
        enc = CDREncoder()
        encode_typecode(enc, hostile)
        wire = enc.getvalue() + b"\x00" * 16
        with pytest.raises(BAD_PARAM):
            decode_value_interp(CDRDecoder(wire), tc_any)
        with pytest.raises(BAD_PARAM):
            get_plan(tc_any).decode(CDRDecoder(wire))


    def test_hostile_zero_width_array_length_fails_fast(self):
        """An element that occupies no wire bytes (void, an empty
        struct, arrays of those) makes an array's length free, and the
        length arrives off the wire when the TypeCode rides in an any.
        Both tiers hold it to the sequence rule — a count beyond the
        remaining bytes is MARSHAL, decided after one element."""
        empty = TypeCode(TCKind.STRUCT, name="E", repo_id="IDL:t/E:1.0")
        for content in (tc_void, empty,
                        TypeCode(TCKind.ARRAY, content_type=tc_void,
                                 length=2)):
            hostile = TypeCode(TCKind.ARRAY, content_type=content,
                               length=2 ** 28)
            enc = CDREncoder()
            encode_typecode(enc, hostile)
            wire = enc.getvalue() + b"\x00" * 16
            for decode in (lambda d: decode_value_interp(d, tc_any),
                           get_plan(tc_any).decode):
                start = time.perf_counter()
                with pytest.raises(MARSHAL):
                    decode(CDRDecoder(wire))
                assert time.perf_counter() - start < 0.010
        assert get_plan(hostile).encode.__codegen_source__
        assert codegen.stats["errors"] == 0

    def test_zero_width_array_covered_by_the_wire_round_trips(self):
        """The same rule admits a zero-width array whose length the
        remaining bytes cover, exactly as it admits ``sequence<void>``;
        one the wire does not cover is refused, as that sequence always
        was.  Neither type can be written in IDL."""
        tc = struct_tc("Covered", [("a", array_tc(tc_void, 3)),
                                   ("box", tc_any), ("tail", tc_long)])
        value = {"a": [None] * 3, "box": Any(array_tc(tc_void, 3),
                                             [None] * 3), "tail": 7}
        ref, fast = both_encodings(tc, value)
        assert ref == fast
        assert get_plan(tc).decode(CDRDecoder(fast)) == value
        assert decode_value_interp(CDRDecoder(ref), tc) == value
        bare = array_tc(tc_void, 3)
        for decode in (lambda d: decode_value_interp(d, bare),
                       get_plan(bare).decode):
            with pytest.raises(MARSHAL):
                decode(CDRDecoder(b""))
            assert decode(CDRDecoder(b"\x00" * 3)) == [None] * 3

    def test_any_of_a_typecode_nested_past_hashing_is_bad_param(self):
        """``encode_any`` resolves the plan before it marshals the
        TypeCode, and hashing a TypeCode nested thousands deep exhausts
        the Python stack; the caller still sees the nesting error."""
        tc = tc_long
        for _ in range(5_000):
            tc = TypeCode(TCKind.SEQUENCE, content_type=tc)
        with pytest.raises(BAD_PARAM, match="nesting too deep"):
            encode_one(tc_any, Any(tc, []))


class TestMaxNesting:
    def _deep_struct(self, depth):
        tc = tc_long
        for i in range(depth):
            tc = struct_tc(f"S{i}", [("m", tc)])
        return tc

    def _deep_value(self, depth):
        v = 1
        for _ in range(depth):
            v = {"m": v}
        return v

    def test_deep_struct_rejected_by_both_paths(self):
        tc = self._deep_struct(70)
        value = self._deep_value(70)
        with pytest.raises(BAD_PARAM, match="nesting too deep"):
            encode_value_interp(CDREncoder(), tc, value)
        with pytest.raises(BAD_PARAM, match="nesting too deep"):
            get_plan(tc).encode(CDREncoder(), value)

    def test_shallow_struct_accepted_by_both_paths(self):
        tc = self._deep_struct(20)
        value = self._deep_value(20)
        ref, fast = both_encodings(tc, value)
        assert ref == fast
        assert get_plan(tc).decode(CDRDecoder(fast)) == value

    def test_deep_sequence_type_with_empty_value_ok(self):
        """An over-deep TypeCode is fine while the value stays shallow:
        the interpreter only enforces depth as it recurses, and the
        generated plan raises at the same node, no sooner."""
        tc = tc_long
        for _ in range(70):
            tc = sequence_tc(tc)
        ref, fast = both_encodings(tc, [])
        assert ref == fast == b"\x00\x00\x00\x00"
        plan = get_plan(tc)
        assert plan.decode(CDRDecoder(fast)) == []
        assert codegen.stats["errors"] == 0

    def test_deep_sequence_value_rejected_by_both_paths(self):
        tc = tc_long
        value = 1
        for _ in range(70):
            tc = sequence_tc(tc)
            value = [value]
        with pytest.raises(BAD_PARAM, match="nesting too deep"):
            encode_value_interp(CDREncoder(), tc, value)
        with pytest.raises(BAD_PARAM, match="nesting too deep"):
            get_plan(tc).encode(CDREncoder(), value)


class TestEncoderPooling:
    def test_take_detaches_and_resets(self):
        enc = CDREncoder()
        enc.write_ulong(7)
        data = enc.take()
        assert data == b"\x00\x00\x00\x07"
        assert len(enc) == 0
        enc.write_ulong(9)   # reusable after take
        assert enc.getvalue() == b"\x00\x00\x00\x09"

    def test_getvalue_unchanged_by_take_contract(self):
        enc = CDREncoder()
        enc.write_string("x")
        assert enc.getvalue() == enc.getvalue()  # non-destructive
        assert enc.take() == b"\x00\x00\x00\x02x\x00"

    def test_reset_clears(self):
        enc = CDREncoder()
        enc.write_long(1)
        enc.reset()
        assert len(enc) == 0

    def test_align_pads_with_zero_bytes(self):
        enc = CDREncoder()
        enc.write_boolean(True)
        enc.align(8)
        assert enc.getvalue() == b"\x01" + b"\x00" * 7
        enc.align(8)  # already aligned: no-op
        assert len(enc) == 8

    def test_pack_error_paths(self):
        enc = CDREncoder()
        with pytest.raises(BAD_PARAM):
            enc.write_long("not-a-number")
        with pytest.raises(BAD_PARAM):
            enc.write_ulong(-1)


ECHO = InterfaceDef("IDL:test/CompiledEcho:1.0", "CompiledEcho", operations=[
    op("echo", [("p", POINT)], POINT),
])


class EchoServant(Servant):
    _interface = ECHO

    def echo(self, p):
        return p


class TestInvocationFastPath:
    def _rig(self):
        env = Environment()
        net = Network(env, star(1))
        server = ORB(env, net, "hub")
        client = ORB(env, net, "h0")
        ior = server.adapter("root").activate(EchoServant())
        return client, ior

    def test_plan_cache_hit_during_standard_invocation(self):
        client, ior = self._rig()
        stub = client.stub(ior, ECHO)
        codegen.reset_stats()
        result = client.sync(stub.echo({"x": 1.0, "y": 2.0}))
        assert result == {"x": 1.0, "y": 2.0}
        assert codegen.stats["cache_hits"] > 0

    def test_repeat_invocations_do_not_recompile(self):
        client, ior = self._rig()
        stub = client.stub(ior, ECHO)
        client.sync(stub.echo({"x": 1.0, "y": 2.0}))
        codegen.reset_stats()
        client.sync(stub.echo({"x": 3.0, "y": 4.0}))
        assert codegen.stats["generated"] == 0
        assert codegen.stats["cache_misses"] == 0

    def test_stub_memoizes_operation_methods(self):
        client, ior = self._rig()
        stub = client.stub(ior, ECHO)
        first = stub.echo
        assert stub.echo is first

    def test_op_codec_cached_per_operation(self):
        # The memo sits on the frozen OperationDef itself and stays out
        # of its value: equal definitions stay equal and hashable.
        odef = op("echo", [("s", tc_string)], tc_string)
        twin = op("echo", [("s", tc_string)], tc_string)
        assert odef._codec is None
        assert odef.codec() is odef.codec() is odef._codec
        assert odef == twin and hash(odef) == hash(twin)
        assert "_codec" not in repr(odef)

    def test_find_operation_cache_invalidated_on_add(self):
        iface = InterfaceDef("IDL:test/Grow:1.0", "Grow",
                             operations=[op("a")])
        assert iface.find_operation("a") is not None
        assert iface.find_operation("b") is None
        iface.add_operation(op("b"))
        assert iface.find_operation("b") is not None

    def test_find_operation_sees_bases(self):
        base = InterfaceDef("IDL:test/Base:1.0", "Base",
                            operations=[op("ping")])
        child = InterfaceDef("IDL:test/Child:1.0", "Child",
                             operations=[op("pong")], bases=[base])
        assert child.find_operation("ping") is not None
        assert child.find_operation("pong") is not None
        own = InterfaceDef("IDL:test/Own:1.0", "Own",
                           operations=[op("ping", cpu_cost=9.0)],
                           bases=[base])
        assert own.find_operation("ping").cpu_cost == 9.0


class TestPlanCache:
    def test_equal_typecodes_share_a_plan(self):
        a = struct_tc("Shared", [("x", tc_long)])
        b = struct_tc("Shared", [("x", tc_long)])
        assert a is not b
        assert get_plan(a) is get_plan(b)

    def test_get_plan_returns_codec_plan(self):
        plan = get_plan(POINT)
        assert isinstance(plan, CodecPlan)
        assert (plan.tc, plan.depth) == (POINT, 0)
        assert plan.at(0) is plan
        assert plan.at(3) is plan.at(3) is not plan
        assert plan.at(3).depth == 3 and plan.at(3).at(0) is plan

    def test_top_level_api_uses_plans(self):
        codegen.reset_stats()
        enc = CDREncoder()
        encode_value(enc, POINT, {"x": 0.0, "y": 0.0})
        decode_value(CDRDecoder(enc.getvalue()), POINT)
        stats = codegen.stats
        assert stats["cache_hits"] + stats["cache_misses"] >= 2

    def test_fresh_any_typecodes_neither_grow_nor_pin(self):
        """A stream of same-typed anys pays for its TypeCode once: after
        first touch the wire index answers, so 10,000 decodes build no
        TypeCode at all and reuse the first decoded one — never the
        sender's.  The index is a second key into the plan cache, so it
        can only be as large."""
        payloads = [
            (POINT, {"x": 1.0, "y": 2.0}),
            (sequence_tc(tc_double), [0.5]),
            (tc_string, "s"),
        ]
        wires = [encode_one(tc_any, Any(tc, v)) for tc, v in payloads]

        def live_typecodes():
            gc.collect()
            return sum(1 for o in gc.get_objects() if type(o) is TypeCode)

        compiled.clear_cache()
        for wire in wires:           # first touch: generate + cache
            decode_value(CDRDecoder(wire), tc_any)
        # tc_any, and each payload's plans rooted at depths 0 and 1
        assert compiled.cache_size() == 2 * len(payloads) + 1
        assert len(compiled._TC_INDEX) == len(payloads)
        before = live_typecodes()
        codegen.reset_stats()
        for i in range(10_000):
            got = decode_value(CDRDecoder(wires[i % 3]), tc_any)
            assert got.typecode is not payloads[i % 3][0]
        del got
        assert compiled.cache_size() == 2 * len(payloads) + 1
        assert len(compiled._TC_INDEX) == len(payloads)
        assert live_typecodes() == before
        snap = codegen.stats_snapshot()
        assert (snap["any_tc_hits"], snap["any_tc_misses"]) == (10_000, 0)
        codegen.reset_stats()
        assert codegen.stats["any_tc_hits"] == 0

    def test_wire_index_holds_only_canonical_wires_of_cached_plans(self):
        """5,000 distinct TypeCodes (more than the plan cache holds, so
        it clears on full along the way) and 1,000 wires that decode to
        one TypeCode without being its canonical form — non-zero
        alignment padding, slack at the end of the encapsulation.  The
        index never exceeds the plan cache, and no re-padding enters it:
        a hostile sender cannot grow it past one entry per plan."""
        compiled.clear_cache()
        for i in range(5_000):
            tc = alias_tc(f"Fresh{i}", tc_long)
            got = decode_value(CDRDecoder(encode_one(tc_any, Any(tc, i))),
                               tc_any)
            assert got == Any(tc, i)
            assert 0 < len(compiled._TC_INDEX) <= compiled.cache_size() \
                <= compiled._CACHE_MAX

        enc = CDREncoder()
        encode_typecode(enc, POINT)
        canonical = enc.getvalue()

        def boxed_point(tc_wire):
            enc = CDREncoder()
            enc.write_bytes_raw(tc_wire)
            encode_value(enc, POINT, {"x": 1.0, "y": 2.0})
            return enc.getvalue()

        def decodes_to_point(wire):
            try:
                return decode_typecode(CDRDecoder(wire)) == POINT
            except SystemException:
                return False

        pads = [i for i, byte in enumerate(canonical) if byte == 0
                and decodes_to_point(canonical[:i] + b"\xaa"
                                     + canonical[i + 1:])]
        assert len(pads) >= 2
        repadded = []
        for n in range(900):
            wire = bytearray(canonical)
            wire[pads[0]] = 1 + n % 255
            wire[pads[1]] = 1 + n // 255
            repadded.append(bytes(wire))
        for n in range(1, 101):    # slack after the last member
            length = int.from_bytes(canonical[4:8], "big") + 4 * n
            repadded.append(canonical[:4] + length.to_bytes(4, "big")
                            + canonical[8:] + b"\x00" * (4 * n))
        assert len(set(repadded)) == 1_000 and canonical not in repadded

        compiled.clear_cache()
        codegen.reset_stats()
        for wire in [canonical] + repadded + repadded:
            got = decode_value(CDRDecoder(boxed_point(wire)), tc_any)
            assert got == Any(POINT, {"x": 1.0, "y": 2.0})
            assert list(compiled._TC_INDEX) == [canonical]
        assert compiled.cache_size() == 3    # tc_any, POINT at depths 0, 1
        assert codegen.stats["any_tc_hits"] == 0
        assert codegen.stats["any_tc_misses"] == 2_001

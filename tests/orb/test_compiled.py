"""Tests for the CDR codec plans and the invocation fast path.

Covers the plan cache (hit counters during a standard invocation, no
growth under freshly decoded ``any`` TypeCodes), the max-nesting edge
cases where the fast path must agree with the interpreter's dynamic
depth limit, misaligned enclosing encapsulations, and the
pooled-encoder plumbing (``take``/``reset``).
"""

import gc

import pytest

from repro.orb import codegen, compiled
from repro.orb.cdr import (
    Any,
    CDRDecoder,
    CDREncoder,
    decode_value,
    decode_value_interp,
    encode_one,
    encode_typecode,
    encode_value,
    encode_value_interp,
)
from repro.orb.compiled import CodecPlan, get_plan, op_codec
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM
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
        e_ref.write_octet(i)
        e_fast.write_octet(i)
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
                d_ref.read_octet()
                d_fast.read_octet()
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
        outer.write_octet(0xAB)          # misalign the outer stream
        outer.write_encapsulation(inner_fast)
        dec = CDRDecoder(outer.getvalue())
        assert dec.read_octet() == 0xAB
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
        compiled plan must match."""
        tc = tc_long
        for _ in range(70):
            tc = sequence_tc(tc)
        ref, fast = both_encodings(tc, [])
        assert ref == fast == b"\x00\x00\x00\x00"
        plan = get_plan(tc)
        assert plan.tier == "interpreter"
        assert plan.decode(CDRDecoder(fast)) == []

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
        enc.write_double(1.0)
        enc.reset()
        assert len(enc) == 0

    def test_align_pads_with_zero_bytes(self):
        enc = CDREncoder()
        enc.write_octet(1)
        enc.align(8)
        assert enc.getvalue() == b"\x01" + b"\x00" * 7
        enc.align(8)  # already aligned: no-op
        assert len(enc) == 8

    def test_pack_error_paths(self):
        enc = CDREncoder()
        with pytest.raises(BAD_PARAM):
            enc.write_float("not-a-number")
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
        odef = ECHO.operations["echo"]
        assert op_codec(odef) is op_codec(odef)

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
        assert plan.tier == "codegen"
        assert (plan.static_depth, plan.dynamic) == (1, False)

    def test_top_level_api_uses_plans(self):
        codegen.reset_stats()
        enc = CDREncoder()
        encode_value(enc, POINT, {"x": 0.0, "y": 0.0})
        decode_value(CDRDecoder(enc.getvalue()), POINT)
        stats = codegen.stats
        assert stats["cache_hits"] + stats["cache_misses"] >= 2

    def test_fresh_any_typecodes_neither_grow_nor_pin(self):
        """Every decoded ``any`` carries a freshly built, never-identical
        TypeCode.  The cache must hold one plan per *distinct* TypeCode
        and keep none of the duplicates alive (the old identity front
        cache pinned one per decode, up to 4,096)."""
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
        assert compiled.cache_size() == len(payloads) + 1   # + tc_any
        before = live_typecodes()
        for i in range(10_000):
            got = decode_value(CDRDecoder(wires[i % 3]), tc_any)
            assert got.typecode is not payloads[i % 3][0]
        del got
        assert compiled.cache_size() == len(payloads) + 1
        assert live_typecodes() <= before + 8

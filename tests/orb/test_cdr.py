"""Unit tests for CDR marshalling."""

import pytest

from repro.orb.cdr import (
    Any,
    CDRDecoder,
    CDREncoder,
    decode_one,
    decode_typecode,
    encode_one,
    encode_typecode,
)
from repro.orb.exceptions import BAD_PARAM
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    TCKind,
    alias_tc,
    array_tc,
    enum_tc,
    except_tc,
    objref_tc,
    sequence_tc,
    struct_tc,
    tc_any,
    tc_boolean,
    tc_char,
    tc_double,
    tc_float,
    tc_long,
    tc_longlong,
    tc_objref,
    tc_octet,
    tc_octetseq,
    tc_short,
    tc_string,
    tc_ulong,
    tc_ulonglong,
    tc_ushort,
    tc_void,
    union_tc,
)
from tests.oracles.cdr_interp import read_fixed, write_fixed


def roundtrip(tc, value):
    data = encode_one(tc, value)
    return decode_one(tc, data), data


class TestPrimitives:
    @pytest.mark.parametrize("tc,value", [
        (tc_short, -1234),
        (tc_ushort, 65535),
        (tc_long, -(2**31)),
        (tc_ulong, 2**32 - 1),
        (tc_longlong, -(2**63)),
        (tc_ulonglong, 2**64 - 1),
        (tc_boolean, True),
        (tc_boolean, False),
        (tc_octet, 255),
        (tc_char, "Z"),
        (tc_double, 3.141592653589793),
        (tc_string, "hello, world"),
        (tc_string, ""),
        (tc_string, "unicode: ñ€漢"),
        (tc_octetseq, b"\x00\x01\xff"),
        (tc_void, None),
    ])
    def test_roundtrip(self, tc, value):
        got, _ = roundtrip(tc, value)
        assert got == value

    def test_float_roundtrips_at_single_precision(self):
        got, _ = roundtrip(tc_float, 1.5)
        assert got == 1.5

    def test_out_of_range_rejected(self):
        with pytest.raises(BAD_PARAM):
            encode_one(tc_short, 2**20)
        with pytest.raises(BAD_PARAM):
            encode_one(tc_octet, -1)

    def test_char_must_be_single(self):
        with pytest.raises(BAD_PARAM):
            encode_one(tc_char, "ab")

    def test_string_type_checked(self):
        with pytest.raises(BAD_PARAM):
            encode_one(tc_string, 42)

    def test_void_rejects_value(self):
        with pytest.raises(BAD_PARAM):
            encode_one(tc_void, 1)


class TestAlignment:
    def test_double_aligned_to_8(self):
        enc = CDREncoder()
        enc.write_boolean(True)
        write_fixed(enc, TCKind.DOUBLE, 2.0)
        data = enc.getvalue()
        assert len(data) == 16  # 1 + 7 pad + 8
        dec = CDRDecoder(data)
        assert dec.read_boolean()
        assert read_fixed(dec, TCKind.DOUBLE) == 2.0

    def test_ulong_aligned_to_4(self):
        enc = CDREncoder()
        enc.write_boolean(True)
        enc.write_ulong(7)
        assert len(enc.getvalue()) == 8

    def test_no_padding_when_aligned(self):
        enc = CDREncoder()
        enc.write_ulong(1)
        enc.write_ulong(2)
        assert len(enc.getvalue()) == 8

    def test_string_length_prefixed_and_nul_terminated(self):
        data = encode_one(tc_string, "ab")
        # ulong length 3, 'a','b','\0'
        assert data == b"\x00\x00\x00\x03ab\x00"


class TestConstructed:
    POINT = struct_tc("Point", [("x", tc_double), ("y", tc_double)])

    def test_struct_roundtrip(self):
        got, _ = roundtrip(self.POINT, {"x": 1.0, "y": -2.0})
        assert got == {"x": 1.0, "y": -2.0}

    def test_struct_accepts_attribute_objects(self):
        class P:
            x = 3.0
            y = 4.0
        got, _ = roundtrip(self.POINT, P())
        assert got == {"x": 3.0, "y": 4.0}

    def test_struct_missing_member_rejected(self):
        with pytest.raises(BAD_PARAM):
            encode_one(self.POINT, {"x": 1.0})

    def test_struct_extra_member_rejected(self):
        with pytest.raises(BAD_PARAM):
            encode_one(self.POINT, {"x": 1.0, "y": 2.0, "z": 3.0})

    def test_nested_struct(self):
        seg = struct_tc("Seg", [("a", self.POINT), ("b", self.POINT)])
        value = {"a": {"x": 0.0, "y": 0.0}, "b": {"x": 1.0, "y": 1.0}}
        got, _ = roundtrip(seg, value)
        assert got == value

    def test_sequence_roundtrip(self):
        tc = sequence_tc(tc_long)
        got, _ = roundtrip(tc, [1, 2, 3])
        assert got == [1, 2, 3]
        got, _ = roundtrip(tc, [])
        assert got == []

    def test_bounded_sequence_enforced(self):
        tc = sequence_tc(tc_long, bound=2)
        roundtrip(tc, [1, 2])
        with pytest.raises(BAD_PARAM):
            encode_one(tc, [1, 2, 3])

    def test_octet_sequence_fast_path(self):
        tc = sequence_tc(tc_octet)
        assert tc is tc_octetseq
        got, _ = roundtrip(tc, b"abc")
        assert got == b"abc"

    def test_array_exact_length(self):
        tc = array_tc(tc_long, 3)
        got, _ = roundtrip(tc, [7, 8, 9])
        assert got == [7, 8, 9]
        with pytest.raises(BAD_PARAM):
            encode_one(tc, [7, 8])

    def test_enum_roundtrip_by_label_and_index(self):
        tc = enum_tc("Color", ["red", "green", "blue"])
        got, data = roundtrip(tc, "green")
        assert got == "green"
        assert data == b"\x00\x00\x00\x01"
        got2, _ = roundtrip(tc, 2)
        assert got2 == "blue"

    def test_enum_bad_label_rejected(self):
        tc = enum_tc("Color", ["red"])
        with pytest.raises(BAD_PARAM):
            encode_one(tc, "mauve")
        with pytest.raises(BAD_PARAM):
            encode_one(tc, 5)

    def test_alias_transparent(self):
        tc = alias_tc("Name", tc_string)
        got, data = roundtrip(tc, "x")
        assert got == "x"
        assert data == encode_one(tc_string, "x")

    def test_union_arms(self):
        tc = union_tc("U", tc_long, [
            (1, "i", tc_long),
            (2, "s", tc_string),
            (None, "d", tc_double),
        ], default_index=2)
        assert roundtrip(tc, (1, 42))[0] == (1, 42)
        assert roundtrip(tc, (2, "hey"))[0] == (2, "hey")
        assert roundtrip(tc, (99, 2.5))[0] == (99, 2.5)  # default arm

    def test_union_without_default_rejects_unknown(self):
        tc = union_tc("U", tc_long, [(1, "i", tc_long)])
        with pytest.raises(BAD_PARAM):
            encode_one(tc, (9, 1))

    def test_exception_shape(self):
        tc = except_tc("Oops", [("code", tc_long)])
        got, _ = roundtrip(tc, {"code": 7})
        assert got == {"code": 7}


class TestAnyAndObjref:
    def test_any_roundtrip(self):
        inner = struct_tc("P", [("x", tc_long)])
        value = Any(inner, {"x": 9})
        got, _ = roundtrip(tc_any, value)
        assert got == value

    def test_any_requires_any_instance(self):
        with pytest.raises(BAD_PARAM):
            encode_one(tc_any, 42)

    def test_objref_roundtrip(self):
        ior = IOR("IDL:x/Y:1.0", "hostA", "root", "obj-1")
        got, _ = roundtrip(tc_objref, ior)
        assert got == ior

    def test_nil_objref(self):
        got, _ = roundtrip(tc_objref, None)
        assert got is None

    def test_typed_objref(self):
        tc = objref_tc("IDL:x/Y:1.0", "Y")
        ior = IOR("IDL:x/Y:1.0", "h", "a", "k")
        got, _ = roundtrip(tc, ior)
        assert got == ior


class TestTypeCodeMarshalling:
    @pytest.mark.parametrize("tc", [
        tc_long, tc_string, tc_double, tc_any, tc_octetseq,
        struct_tc("P", [("x", tc_double), ("tags", sequence_tc(tc_string))]),
        enum_tc("E", ["a", "b"]),
        sequence_tc(struct_tc("Q", [("n", tc_long)])),
        array_tc(tc_long, 4),
        alias_tc("A", sequence_tc(tc_long)),
        objref_tc("IDL:x/Y:1.0", "Y"),
        except_tc("X", [("m", tc_string)]),
        union_tc("U", tc_long,
                 [(1, "i", tc_long), (None, "s", tc_string)],
                 default_index=1),
    ])
    def test_typecode_roundtrip(self, tc):
        enc = CDREncoder()
        encode_typecode(enc, tc)
        dec = CDRDecoder(enc.getvalue())
        got = decode_typecode(dec)
        assert got == tc
        assert dec.at_end()


class TestDecoderRobustness:
    def test_underflow_detected(self):
        with pytest.raises(BAD_PARAM, match="underflow"):
            decode_one(tc_long, b"\x00\x00")

    def test_string_underflow(self):
        with pytest.raises(BAD_PARAM):
            decode_one(tc_string, b"\x00\x00\x00\xff")

    def test_string_missing_nul(self):
        with pytest.raises(BAD_PARAM):
            decode_one(tc_string, b"\x00\x00\x00\x02ab")

    def test_enum_index_out_of_range(self):
        tc = enum_tc("E", ["only"])
        with pytest.raises(BAD_PARAM):
            decode_one(tc, b"\x00\x00\x00\x05")

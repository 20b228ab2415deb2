"""Property-based tests: CDR marshalling over randomly generated types.

The core invariant of the whole wire layer: for every supported
TypeCode and every value conforming to it, decode(encode(v)) == v and
the decoder consumes exactly the bytes the encoder produced.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.orb.cdr import (
    Any,
    CDRDecoder,
    CDREncoder,
    decode_typecode,
    decode_value,
    encode_typecode,
    encode_value,
)
from repro.orb.compiled import get_plan
from repro.orb.ior import IOR
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
    tc_longlong,
    tc_objref,
    tc_octet,
    tc_octetseq,
    tc_short,
    tc_string,
    tc_ulong,
    tc_ulonglong,
    tc_ushort,
    union_tc,
)
from tests.oracles.cdr_interp import (
    decode_value_interp,
    encode_value_interp,
    read_fixed,
    write_fixed,
)

# -- strategies ---------------------------------------------------------------

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)

_PRIMITIVES = [
    (tc_short, st.integers(-(2**15), 2**15 - 1)),
    (tc_ushort, st.integers(0, 2**16 - 1)),
    (tc_long, st.integers(-(2**31), 2**31 - 1)),
    (tc_ulong, st.integers(0, 2**32 - 1)),
    (tc_longlong, st.integers(-(2**63), 2**63 - 1)),
    (tc_ulonglong, st.integers(0, 2**64 - 1)),
    (tc_boolean, st.booleans()),
    (tc_octet, st.integers(0, 255)),
    (tc_char, st.characters(min_codepoint=0, max_codepoint=255)),
    (tc_double, st.floats(allow_nan=False, allow_infinity=False)),
    (tc_string, st.text(max_size=40)),
    (tc_octetseq, st.binary(max_size=40)),
]


def _primitive_pairs():
    return st.sampled_from(range(len(_PRIMITIVES))).map(
        lambda i: _PRIMITIVES[i])


#: Object-reference values: nil, or an IOR (stubs marshal as theirs).
_objrefs = st.one_of(
    st.none(),
    st.builds(IOR, repo_id=st.just("IDL:prop/Peer:1.0"),
              host_id=st.sampled_from(["h0", "h1", "hub"]),
              adapter=st.just("root"),
              object_key=st.from_regex(r"[a-z0-9]{1,8}", fullmatch=True)))


@st.composite
def _typed_values(draw, depth: int = 2):
    """Draw a (TypeCode, conforming value) pair, recursively.

    Constructed types draw their members one level down, so struct,
    sequence, array and union members may themselves be ``any`` or an
    object reference — the value-dependent shapes."""
    if depth <= 0:
        tc, strat = draw(_primitive_pairs())
        return tc, draw(strat)
    choice = draw(st.integers(0, 9))
    if choice <= 1:  # bias toward primitives
        tc, strat = draw(_primitive_pairs())
        return tc, draw(strat)
    if choice == 8:  # any, boxing a value one level down
        inner_tc, inner = draw(_typed_values(depth - 1))
        return tc_any, Any(inner_tc, inner)
    if choice == 9:
        return tc_objref, draw(_objrefs)
    if choice == 2:  # sequence
        elem_tc, _ = draw(_typed_values(depth - 1))
        seq_tc = sequence_tc(elem_tc)
        if seq_tc.kind is TCKind.OCTETSEQ:
            # sequence<octet> collapses to the bytes fast path.
            return seq_tc, draw(st.binary(max_size=10))
        items = []
        for _ in range(draw(st.integers(0, 3))):
            _tc, val = draw(_typed_values_of(elem_tc, depth - 1))
            items.append(val)
        return seq_tc, items
    if choice == 3:  # struct
        n = draw(st.integers(1, 3))
        members, value = [], {}
        used = set()
        for i in range(n):
            name = f"m{i}"
            mtc, mval = draw(_typed_values(depth - 1))
            members.append((name, mtc))
            value[name] = mval
        return struct_tc(draw(_names), members), value
    if choice == 4:  # enum
        labels = draw(st.lists(_names, min_size=1, max_size=4,
                               unique=True))
        return (enum_tc(draw(_names), labels),
                draw(st.sampled_from(labels)))
    if choice == 5:  # array
        elem_tc, _ = draw(_typed_values(depth - 1))
        length = draw(st.integers(1, 3))
        items = [draw(_typed_values_of(elem_tc, depth - 1))[1]
                 for _ in range(length)]
        return array_tc(elem_tc, length), items
    if choice == 6:  # alias
        inner_tc, val = draw(_typed_values(depth - 1))
        return alias_tc(draw(_names), inner_tc), val
    # union over a long discriminator, with an optional default arm
    n_arms = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(-100, 100), min_size=n_arms,
                           max_size=n_arms, unique=True))
    arms = []
    for i, label in enumerate(labels):
        arm_tc, _ = draw(_typed_values(depth - 1))
        arms.append((label, f"a{i}", arm_tc))
    default_index = -1
    if draw(st.booleans()):
        arm_tc, _ = draw(_typed_values(depth - 1))
        arms.append((None, "dflt", arm_tc))
        default_index = len(arms) - 1
    tc = union_tc(draw(_names), tc_long, arms, default_index=default_index)
    return tc, draw(_typed_values_of(tc, depth - 1))[1]


@st.composite
def _typed_values_of(draw, tc: TypeCode, depth: int):
    """Draw a value conforming to an existing TypeCode."""
    kind = tc.kind
    for ptc, strat in _PRIMITIVES:
        if ptc == tc:
            return tc, draw(strat)
    if kind is TCKind.ANY:
        inner_tc, inner = draw(_typed_values(depth))
        return tc, Any(inner_tc, inner)
    if kind is TCKind.OBJREF:
        return tc, draw(_objrefs)
    if kind is TCKind.SEQUENCE:
        n = draw(st.integers(0, 3))
        return tc, [draw(_typed_values_of(tc.content_type, depth - 1))[1]
                    for _ in range(n)]
    if kind is TCKind.ARRAY:
        return tc, [draw(_typed_values_of(tc.content_type, depth - 1))[1]
                    for _ in range(tc.length)]
    if kind is TCKind.STRUCT:
        return tc, {
            name: draw(_typed_values_of(mtc, depth - 1))[1]
            for name, mtc in tc.members
        }
    if kind is TCKind.ENUM:
        return tc, draw(st.sampled_from(list(tc.labels)))
    if kind is TCKind.ALIAS:
        return tc, draw(_typed_values_of(tc.content_type, depth))[1]
    if kind is TCKind.UNION:
        idx = draw(st.integers(0, len(tc.members) - 1))
        label, _name, arm_tc = tc.members[idx]
        if label is None:
            # Default arm: any discriminator that matches no label.
            # Labels are drawn from [-100, 100], so this is disjoint.
            disc = draw(st.integers(200, 300))
        else:
            disc = label
        return tc, (disc, draw(_typed_values_of(arm_tc, depth - 1))[1])
    raise AssertionError(f"unhandled kind {kind}")


def _normalize(tc: TypeCode, value):
    """Account for float32 rounding in comparisons (none used here)."""
    return value


# -- properties ------------------------------------------------------------------

@given(_typed_values())
@settings(max_examples=300, deadline=None)
def test_cdr_roundtrip_random_types(pair):
    tc, value = pair
    enc = CDREncoder()
    encode_value(enc, tc, value)
    dec = CDRDecoder(enc.getvalue())
    got = decode_value(dec, tc)
    assert got == value
    assert dec.at_end() or dec.remaining < 8  # only alignment padding left


@given(_typed_values(), _typed_values())
@settings(max_examples=100, deadline=None)
def test_cdr_concatenated_values_decode_in_order(pair_a, pair_b):
    (tc_a, val_a), (tc_b, val_b) = pair_a, pair_b
    enc = CDREncoder()
    encode_value(enc, tc_a, val_a)
    encode_value(enc, tc_b, val_b)
    dec = CDRDecoder(enc.getvalue())
    assert decode_value(dec, tc_a) == val_a
    assert decode_value(dec, tc_b) == val_b


@given(_typed_values())
@settings(max_examples=200, deadline=None)
def test_typecode_marshalling_roundtrip(pair):
    tc, _value = pair
    enc = CDREncoder()
    encode_typecode(enc, tc)
    got = decode_typecode(CDRDecoder(enc.getvalue()))
    assert got == tc


@given(_typed_values())
@settings(max_examples=150, deadline=None)
def test_any_roundtrip_random_types(pair):
    tc, value = pair
    from repro.orb.typecodes import tc_any
    enc = CDREncoder()
    encode_value(enc, tc_any, Any(tc, value))
    got = decode_value(CDRDecoder(enc.getvalue()), tc_any)
    assert got.typecode == tc
    assert got.value == value


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_compiled_matches_interpreter(pair, prefix):
    """The compiled codec plan must produce byte-identical output and
    identical decoded values to the reference interpreter — including
    when the value starts at every possible (mod 8) misalignment, which
    exercises the per-residue fused format variants."""
    tc, value = pair
    plan = get_plan(tc)
    e_ref, e_fast = CDREncoder(), CDREncoder()
    for i in range(prefix):
        write_fixed(e_ref, TCKind.OCTET, i)
        write_fixed(e_fast, TCKind.OCTET, i)
    encode_value_interp(e_ref, tc, value)
    plan.encode(e_fast, value)
    ref, fast = e_ref.getvalue(), e_fast.getvalue()
    assert ref == fast
    d_ref, d_fast = CDRDecoder(ref), CDRDecoder(fast)
    for _ in range(prefix):
        read_fixed(d_ref, TCKind.OCTET)
        read_fixed(d_fast, TCKind.OCTET)
    v_ref = decode_value_interp(d_ref, tc)
    v_fast = plan.decode(d_fast)
    assert v_ref == v_fast == value
    assert d_ref._pos == d_fast._pos


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_decoder_never_crashes_on_garbage(data):
    """Garbage input must raise a CORBA exception, not segfault/hang."""
    from repro.orb.exceptions import SystemException
    from repro.orb.typecodes import struct_tc
    tc = struct_tc("S", [("a", tc_string), ("b", sequence_tc(tc_long))])
    try:
        decode_value(CDRDecoder(data), tc)
    except SystemException:
        pass  # expected for malformed input

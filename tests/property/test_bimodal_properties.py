"""Bi-modal equivalence: the reference interpreter vs the plan ``get_plan`` serves.

The running system marshals through one tier, the exec-compiled
generated source (repro.orb.codegen) that ``get_plan`` hands out for
every TypeCode.  The reference TypeCode interpreter
(``tests/oracles/cdr_interp.py``) is its oracle: the bytes on the wire,
the values decoded back, the offset the decoder stops at and the class
of error a bad input raises must be identical, at every alignment
residue and at every root depth (``CodecPlan.at``).  The strategy draws
``any`` and object-reference members inside structs, sequences, arrays
and unions, so the generated call-outs (cursor hand-over, depth-rooted
``any`` payloads) are exercised wherever they can sit.

The last section holds the laws of the TypeCode wire memo
(``compiled.encode_any`` / ``decode_any``): memoised bytes equal the
interpreter's, an index hit equals an index miss, every distinct
TypeCode an ``any`` carries -- nested ones included -- is one miss, and
the index is a second key into the plan cache, never a cache of its
own.  The bound law closes the file: plans rooted at every depth count
toward ``compiled._CACHE_MAX``.
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import assume, given, settings, strategies as st

from repro.orb import codegen, compiled
from repro.orb.cdr import (
    Any,
    CDRDecoder,
    CDREncoder,
    decode_typecode,
    encode_typecode,
)
from repro.orb.compiled import get_plan
from repro.orb.exceptions import BAD_PARAM, SystemException
from repro.orb.typecodes import (
    TCKind,
    alias_tc,
    enum_tc,
    sequence_tc,
    struct_tc,
    tc_any,
    tc_boolean,
    tc_double,
    tc_long,
    tc_objref,
    tc_string,
    union_tc,
)

from tests.oracles.cdr_interp import (
    decode_value_interp,
    encode_value_interp,
    _union_arm,
    read_fixed,
    static_depth,
    write_fixed,
)
from tests.oracles.codec import encode_one
from test_cdr_properties import _typed_values


def _paths_for(tc, depth=0):
    """(label, encode(enc, value), decode(dec)) for the oracle and the
    plan, both rooted at *depth*."""
    plan = get_plan(tc).at(depth)
    assert codegen.stats["errors"] == 0
    return [
        ("interp", lambda enc, v: encode_value_interp(enc, tc, v, depth),
         lambda dec: decode_value_interp(dec, tc, depth)),
        ("plan", plan.encode, plan.decode),
    ]


def _encode_outcome(encode, value, prefix):
    """("ok", bytes) or ("err", SystemException class); a raw Python
    error is reported as ("raw", class) — the interpreter lets a few
    through on nonsense values, the generated code must not."""
    enc = CDREncoder()
    for i in range(prefix):
        write_fixed(enc, TCKind.OCTET, i)
    try:
        encode(enc, value)
    except SystemException as exc:
        return "err", type(exc)
    except Exception as exc:
        return "raw", type(exc)
    return "ok", enc.getvalue()


def _decode_outcome(decode, wire, prefix):
    """("ok", value, end offset) or ("err", SystemException class)."""
    dec = CDRDecoder(wire)
    for _ in range(prefix):
        read_fixed(dec, TCKind.OCTET)
    try:
        value = decode(dec)
    except SystemException as exc:
        return "err", type(exc)
    return "ok", value, dec._pos


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_bimodal_encode_bytes_identical(pair, prefix):
    """Plan and oracle emit identical encodings at every (mod 8) residue."""
    tc, value = pair
    (_l, interp_encode, _d), (label, encode, _d2) = _paths_for(tc)
    reference = _encode_outcome(interp_encode, value, prefix)
    assert reference[0] == "ok"
    assert _encode_outcome(encode, value, prefix) == reference, (
        f"{label} encoding differs from interpreter for {tc!r}")


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_bimodal_decode_values_and_positions_identical(pair, prefix):
    """Plan and oracle decode the same value AND stop at the same offset."""
    tc, value = pair
    (_l, interp_encode, interp_decode), (label, _e, decode) = _paths_for(tc)
    _ok, wire = _encode_outcome(interp_encode, value, prefix)
    reference = _decode_outcome(interp_decode, wire, prefix)
    assert reference[:2] == ("ok", value)
    assert _decode_outcome(decode, wire, prefix) == reference, (
        f"{label} decoded differently from the interpreter for {tc!r}")


@given(_typed_values(), _typed_values(), st.integers(0, 7))
@settings(max_examples=300, deadline=None)
def test_bimodal_mismatched_value_raises_the_same_error(pair, other, prefix):
    """A value drawn for a *different* TypeCode: where the interpreter
    raises a SystemException the generated encoder raises the same
    class, where it happens to accept the value the bytes agree, and
    where it leaks a raw Python error the generated encoder still
    contains it."""
    tc, _value = pair
    other_tc, wrong = other
    assume(other_tc != tc)
    (_l, interp_encode, _d), (label, encode, _d2) = _paths_for(tc)
    reference = _encode_outcome(interp_encode, wrong, prefix)
    got = _encode_outcome(encode, wrong, prefix)
    if reference[0] == "raw":
        assert got[0] == "err", f"{label} leaked {got!r} for {tc!r}"
    else:
        assert got == reference, (
            f"{label} gave {got!r}, interpreter {reference!r} for {tc!r}")


@given(_typed_values(), st.integers(0, 7), st.data())
@settings(max_examples=300, deadline=None)
def test_bimodal_truncated_wire_rejected_by_both(pair, prefix, data):
    """Cut the wire anywhere inside the value: both tiers raise a
    SystemException, never a raw error and never a value."""
    tc, value = pair
    (_l, interp_encode, interp_decode), (label, _e, decode) = _paths_for(tc)
    _ok, wire = _encode_outcome(interp_encode, value, prefix)
    assume(len(wire) > prefix)
    cut = wire[:data.draw(st.integers(prefix, len(wire) - 1))]
    reference = _decode_outcome(interp_decode, cut, prefix)
    # Trailing zero-size members (void, empty struct) can leave the
    # interpreter satisfied with a cut at the very end of the payload.
    assume(reference[0] == "err")
    assert _decode_outcome(decode, cut, prefix)[0] == "err", (
        f"{label} accepted a wire the interpreter rejects for {tc!r}")


@given(_typed_values(), _typed_values())
@settings(max_examples=100, deadline=None)
def test_bimodal_concatenated_pairs_decode_in_order(pair_a, pair_b):
    """Back-to-back values keep both tiers in step: each tier decodes
    value A then value B from one buffer, landing on the same offsets.
    This is the regression shape for encode-ordering bugs (a pending
    fixed-leaf run flushed after a later variable field or call-out)."""
    (tc_a, val_a), (tc_b, val_b) = pair_a, pair_b
    enc = CDREncoder()
    encode_value_interp(enc, tc_a, val_a)
    encode_value_interp(enc, tc_b, val_b)
    wire = enc.getvalue()
    for label, _encode, decode_a in _paths_for(tc_a):
        for label_b, _encode_b, decode_b in _paths_for(tc_b):
            dec = CDRDecoder(wire)
            assert decode_a(dec) == val_a, f"{label} broke on value A"
            assert decode_b(dec) == val_b, (
                f"{label}+{label_b} broke on value B")


@given(st.integers(0, 7), st.lists(st.text(max_size=12), max_size=4))
@settings(max_examples=150, deadline=None)
def test_bimodal_misaligned_nested_struct(prefix, names):
    """A struct embedding strings, doubles, an any and an object
    reference, decoded at every start residue — the shape where
    fused-run alignment and cursor hand-over bugs live."""
    tc = struct_tc("Deep", [
        ("flag", tc_boolean),
        ("names", sequence_tc(tc_string)),
        ("box", tc_any),
        ("points", sequence_tc(struct_tc("P", [
            ("x", tc_double), ("y", tc_double)]))),
        ("peer", tc_objref),
        ("id", tc_long),
    ])
    value = {"flag": True, "names": names,
             "box": Any(sequence_tc(tc_string), names),
             "points": [{"x": 0.5, "y": -1.25}], "peer": None, "id": 99}
    (_l, interp_encode, interp_decode), (label, encode, decode) = \
        _paths_for(tc)
    reference = _encode_outcome(interp_encode, value, prefix)
    assert _encode_outcome(encode, value, prefix) == reference, (
        f"{label} bytes differ at +{prefix}")
    wire = reference[1]
    assert _decode_outcome(decode, wire, prefix) \
        == _decode_outcome(interp_decode, wire, prefix) \
        == ("ok", value, len(wire))


def _any_chain(levels: int):
    value = Any(tc_long, 7)
    for _ in range(levels):
        value = Any(tc_any, value)
    return value


@given(st.integers(55, 70), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_bimodal_nesting_limit_through_any_callouts(levels, wrap):
    """An any chain straddling the nesting limit, itself sitting *wrap*
    levels inside generated struct/alias/sequence code: both tiers
    accept or reject the same values with the same error class, so the
    static depth the emitters thread into the call-out is the depth the
    interpreter counts."""
    tc, value = tc_any, _any_chain(levels)
    for i in range(wrap):
        if i % 3 == 0:
            tc, value = struct_tc(f"W{i}", [("n", tc_long), ("v", tc)]), \
                {"n": i, "v": value}
        elif i % 3 == 1:
            tc = alias_tc(f"A{i}", tc)
        else:
            tc, value = sequence_tc(tc), [value]
    (_l, interp_encode, interp_decode), (label, encode, decode) = \
        _paths_for(tc)
    reference = _encode_outcome(interp_encode, value, 0)
    assert _encode_outcome(encode, value, 0) == reference
    if reference[0] == "ok":
        wire = reference[1]
        assert _decode_outcome(decode, wire, 0) \
            == _decode_outcome(interp_decode, wire, 0)


def test_nesting_limit_boundary_is_exercised_on_both_sides():
    """The chain lengths above genuinely straddle the limit."""
    plan = get_plan(tc_any)
    assert _encode_outcome(plan.encode, _any_chain(55), 0)[0] == "ok"
    assert _encode_outcome(plan.encode, _any_chain(70), 0)[0] == "err"


def test_body_past_the_block_budget_calls_out_with_the_oracles_bytes():
    """The generator is total: a loop body past ``_MAX_BLOCKS`` calls
    out to its own TypeCode's plan rooted where the body sits, and the
    bytes, values, offsets and errors stay the oracle's at every
    residue."""
    over_nested = tc_string
    for _ in range(codegen._MAX_BLOCKS + 2):
        over_nested = sequence_tc(over_nested)
    value, bad = ["leaf"], [7]     # *bad* fails in the called-out body
    for i in range(codegen._MAX_BLOCKS + 1):
        value, bad = ([value, []], [bad, []]) if i % 2 else ([value], [bad])
    compiled.clear_cache()
    (_l, interp_encode, interp_decode), (_p, encode, decode) = \
        _paths_for(over_nested)
    assert "_plan(" in encode.__codegen_source__
    assert "_plan(" in decode.__codegen_source__
    for prefix in range(8):
        reference = _encode_outcome(interp_encode, value, prefix)
        assert reference[0] == "ok"
        assert _encode_outcome(encode, value, prefix) == reference
        assert _decode_outcome(decode, reference[1], prefix) \
            == _decode_outcome(interp_decode, reference[1], prefix) \
            == ("ok", value, len(reference[1]))
        assert _encode_outcome(encode, bad, prefix) \
            == _encode_outcome(interp_encode, bad, prefix) \
            == ("err", BAD_PARAM)
    assert [v.depth for v in compiled._VARIANTS] == [codegen._MAX_BLOCKS + 1]
    assert codegen.stats["errors"] == 0


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_plan_at_depth_gives_the_oracles_outcome_at_that_depth(pair, prefix):
    """``get_plan(tc).at(d)`` is the oracle run at ``_depth=d``: at the
    root, one level down, where the deepest node of an ``any``-free
    value sits exactly at the limit, and past the limit."""
    tc, value = pair
    _ok, wire = _encode_outcome(
        lambda enc, v: encode_value_interp(enc, tc, v), value, prefix)
    for depth in sorted({0, 1, max(0, 64 - static_depth(tc)), 65}):
        (_l, interp_encode, interp_decode), (_p, encode, decode) = \
            _paths_for(tc, depth)
        assert _encode_outcome(encode, value, prefix) \
            == _encode_outcome(interp_encode, value, prefix), depth
        assert _decode_outcome(decode, wire, prefix) \
            == _decode_outcome(interp_decode, wire, prefix), depth
    assert _decode_outcome(decode, wire, prefix)[0] == "err"


# -- the TypeCode wire memo ---------------------------------------------------
# The interpreter's any branch is un-memoised, so it is the oracle for
# both directions.

def _interp_any_encode(enc, boxed):
    encode_value_interp(enc, tc_any, boxed)


def _interp_any_decode(dec):
    return decode_value_interp(dec, tc_any)


def _memo_any_encode(enc, boxed):
    compiled.encode_any(enc, boxed, 0)


def _memo_any_decode(dec):
    return compiled.decode_any(dec, 0)


def _payload_wires(tc, value):
    """The marshalled TypeCode of every ``any`` in *value*, in wire
    order: the index's view of one decode."""
    kind = tc.kind
    if kind is TCKind.ALIAS:
        return _payload_wires(tc.content_type, value)
    if kind is TCKind.ANY:
        enc = CDREncoder()
        encode_typecode(enc, value.typecode)
        return [enc.getvalue()] + _payload_wires(value.typecode, value.value)
    if kind in (TCKind.SEQUENCE, TCKind.ARRAY):
        return [w for item in value
                for w in _payload_wires(tc.content_type, item)]
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        return [w for name, mtc in tc.members
                for w in _payload_wires(mtc, value[name])]
    if kind is TCKind.UNION:
        return _payload_wires(_union_arm(tc, value[0])[2], value[1])
    return []


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_memo_encode_bytes_equal_interpreter_first_and_second_call(
        pair, prefix):
    """The first call memoises ``tc_wire``, the second appends it: both
    equal the interpreter's bytes at every start residue."""
    boxed = Any(*pair)
    reference = _encode_outcome(_interp_any_encode, boxed, prefix)
    assert reference[0] == "ok"
    compiled.clear_cache()
    assert get_plan(pair[0]).tc_wire is None
    assert _encode_outcome(_memo_any_encode, boxed, prefix) == reference
    assert get_plan(pair[0]).tc_wire is not None
    assert _encode_outcome(_memo_any_encode, boxed, prefix) == reference


@given(_typed_values(), _typed_values(), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_memo_decode_hit_equals_miss_equals_interpreter(pair_a, pair_b,
                                                        prefix):
    """Two TypeCodes registered side by side: every decode — the miss
    that registers, the hit that follows — returns the interpreter's
    Any and stops at its offset, and the counters say which was which:
    one miss per distinct TypeCode any ``any`` carries, nested ones
    included, and a hit for every other."""
    wires = []
    payloads = []
    for pair in (pair_a, pair_b):
        payloads += _payload_wires(tc_any, Any(*pair))
        _ok, wire = _encode_outcome(_interp_any_encode, Any(*pair), prefix)
        wires.append((wire, _decode_outcome(_interp_any_decode, wire,
                                            prefix)))
        assert wires[-1][1][:2] == ("ok", Any(*pair))
    compiled.clear_cache()
    codegen.reset_stats()
    distinct = len(set(payloads))
    for rounds in (1, 2):
        for wire, reference in wires:
            assert _decode_outcome(_memo_any_decode, wire, prefix) \
                == reference
        assert codegen.stats["any_tc_misses"] == distinct
        assert codegen.stats["any_tc_hits"] == rounds * len(payloads) \
            - distinct
    assert len(compiled._TC_INDEX) == distinct
    assert codegen.stats["errors"] == 0


@given(_typed_values())
@settings(max_examples=100, deadline=None)
def test_memo_equal_typecode_instances_share_one_wire(pair):
    """A TypeCode and its distinct-but-equal twin resolve to one plan,
    so to one memoised ``tc_wire`` object."""
    tc, value = pair
    enc = CDREncoder()
    encode_typecode(enc, tc)
    twin = decode_typecode(CDRDecoder(enc.getvalue()))
    assert twin == tc
    compiled.clear_cache()
    first = _encode_outcome(_memo_any_encode, Any(tc, value), 0)
    wire = get_plan(tc).tc_wire
    assert wire == enc.getvalue()
    assert _encode_outcome(_memo_any_encode, Any(twin, value), 0) == first
    assert get_plan(twin).tc_wire is wire


@given(_typed_values(), st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_memo_strict_prefixes_of_a_registered_wire_raise_as_before(
        pair, prefix):
    """Cut a registered TypeCode's wire anywhere: the index cannot turn
    a truncation into a hit, and the exception class is the un-memoised
    path's."""
    enc = CDREncoder()
    for i in range(prefix):
        write_fixed(enc, TCKind.OCTET, i)
    encode_typecode(enc, pair[0])
    wire = enc.getvalue()
    compiled.clear_cache()
    _ok, full = _encode_outcome(_interp_any_encode, Any(*pair), prefix)
    assert _decode_outcome(_memo_any_decode, full, prefix)[0] == "ok"
    distinct = len(set(_payload_wires(tc_any, Any(*pair))))
    assert len(compiled._TC_INDEX) == distinct
    for cut in range(prefix, len(wire)):
        reference = _decode_outcome(_interp_any_decode, wire[:cut], prefix)
        assert reference[0] == "err"
        assert _decode_outcome(_memo_any_decode, wire[:cut], prefix) \
            == reference
    assert len(compiled._TC_INDEX) == distinct


@given(_typed_values())
@settings(max_examples=50, deadline=None)
def test_memo_index_never_outlives_or_outgrows_the_plan_cache(pair):
    _ok, wire = _encode_outcome(_interp_any_encode, Any(*pair), 0)
    payloads = _payload_wires(tc_any, Any(*pair))
    distinct = len(set(payloads))
    compiled.clear_cache()
    for _ in range(2):
        codegen.reset_stats()
        _memo_any_decode(CDRDecoder(wire))
        _memo_any_decode(CDRDecoder(wire))
        assert (codegen.stats["any_tc_misses"],
                codegen.stats["any_tc_hits"]) \
            == (distinct, 2 * len(payloads) - distinct)
        assert distinct == len(compiled._TC_INDEX) \
            <= len(compiled._CACHE) <= compiled.cache_size()
        compiled.clear_cache()
        assert len(compiled._TC_INDEX) == compiled.cache_size() == 0


def test_plans_of_every_root_depth_stay_within_the_cache_bound(monkeypatch):
    """Twice as many TypeCodes as a shrunken cache holds, carried
    through ``any`` chains that root ``tc_any`` at every depth from 1 to
    63 and each TypeCode at every eighth depth up to 64 (together, at
    all 64): the generated pairs alive never exceed ``_CACHE_MAX``,
    because a plan rooted deeper than 0 counts toward it and
    clear-on-full drops it, and the wire index never outgrows the
    depth-0 plans."""
    monkeypatch.setattr(compiled, "_CACHE_MAX", 8)
    generated = []
    real_generate = codegen.generate

    def generate(tc, depth):
        pair = real_generate(tc, depth)
        generated.append(weakref.ref(pair[0]))
        return pair

    monkeypatch.setattr(codegen, "generate", generate)
    compiled.clear_cache()
    try:
        for i in range(2 * compiled._CACHE_MAX):
            tc = enum_tc(f"Bound{i}", ["on", "off"])
            for levels in range(1 + i % 8, 65, 8):
                boxed = Any(tc, "on")
                for _ in range(levels - 1):
                    boxed = Any(tc_any, boxed)
                wire = encode_one(tc_any, boxed)
                assert get_plan(tc_any).decode(CDRDecoder(wire)) == boxed
                assert len(compiled._TC_INDEX) <= len(compiled._CACHE)
                assert compiled.cache_size() <= compiled._CACHE_MAX
            gc.collect()
            alive = sum(1 for ref in generated if ref() is not None)
            assert alive <= compiled._CACHE_MAX, alive
    finally:
        compiled.clear_cache()
    assert len(generated) > 16 * 64

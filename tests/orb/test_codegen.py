"""Unit tests for the exec-compiled codec tier (repro.orb.codegen).

Property coverage (equivalence with the reference interpreter) lives
in ``tests/property/test_bimodal_properties.py``; this file pins the
plumbing: tier selection in ``get_plan``, the plan cache and stats,
struct value polymorphism, union arms, and the batch-format cache in
``compiled.make_batcher``.
"""

import pytest

from repro.orb import codegen, compiled
from repro.orb.cdr import CDRDecoder, CDREncoder, encode_value_interp
from repro.orb.compiled import get_plan, make_batcher
from repro.orb.exceptions import BAD_PARAM
from repro.orb.typecodes import (
    enum_tc,
    sequence_tc,
    struct_tc,
    tc_any,
    tc_double,
    tc_long,
    tc_objref,
    tc_string,
    union_tc,
)

SUPPORTED_TC = struct_tc("CgSample", [
    ("id", tc_long),
    ("name", tc_string),
    ("path", sequence_tc(struct_tc("CgPoint", [
        ("x", tc_double), ("y", tc_double)]))),
])
SUPPORTED_VALUE = {"id": 41, "name": "n1",
                   "path": [{"x": 1.5, "y": -2.5}]}


@pytest.fixture(autouse=True)
def _fresh_codegen():
    """Each test sees an empty plan cache and zeroed stats, and must
    not have tripped the generator's bug counter."""
    compiled.clear_cache()
    codegen.reset_stats()
    yield
    assert codegen.stats["errors"] == 0


# -- tier selection -----------------------------------------------------------

def test_get_plan_selects_codegen_tier_for_supported_typecode():
    plan = get_plan(SUPPORTED_TC)
    assert plan.tier == "codegen"
    assert plan.encode.__codegen_source__
    assert plan.decode.__codegen_source__


@pytest.mark.parametrize("tc", [
    tc_any,
    tc_objref,
    struct_tc("HasAny", [("a", tc_long), ("b", tc_any)]),
    struct_tc("HasRef", [("r", tc_objref)]),
    sequence_tc(tc_any),
], ids=["any", "objref", "struct_any", "struct_objref", "seq_any"])
def test_get_plan_keeps_value_dependent_shapes_on_plan_tier(tc):
    # The test id predates generated call-outs: the "plan" these
    # shapes stay on is now a codegen-tier CodecPlan, call-out and the
    # struct/sequence around it alike.
    assert codegen.generate(tc) is not None
    assert get_plan(tc).tier == "codegen"


def test_python_keyword_member_names_still_generate():
    # ``from`` and ``pass`` are legal IDL identifiers.
    tc = struct_tc("Kw", [("from", tc_long), ("pass", tc_string)])
    plan = get_plan(tc)
    assert plan.tier == "codegen"
    value = {"from": 1, "pass": "p"}
    enc = CDREncoder()
    plan.encode(enc, value)
    assert plan.decode(CDRDecoder(enc.getvalue())) == value


# -- caches and stats ---------------------------------------------------------

def test_generate_counts_and_caches():
    assert compiled.cache_size() == 0
    first = get_plan(SUPPORTED_TC)
    assert first.tier == "codegen"
    assert codegen.stats["generated"] == 1
    assert codegen.stats["cache_misses"] == 1

    again = get_plan(SUPPORTED_TC)
    assert again is first
    assert codegen.stats["cache_hits"] == 1
    assert codegen.stats["generated"] == 1  # compiled once, served twice
    assert compiled.cache_size() == 1


def test_unsupported_typecode_caches_its_decline():
    over_deep = tc_long
    for _ in range(70):
        over_deep = sequence_tc(over_deep)
    assert codegen.generate(over_deep) is None
    assert codegen.stats["declined"] == 1
    codegen.reset_stats()
    assert get_plan(over_deep).tier == "interpreter"
    assert codegen.stats["declined"] == 1
    # The plan cache holds the decline too: asking again is a hit, not
    # a second supportability walk.
    assert get_plan(over_deep).tier == "interpreter"
    assert codegen.stats["declined"] == 1
    assert codegen.stats["cache_hits"] == 1


def test_generation_bug_is_booked_as_error_not_decline(monkeypatch):
    def boom(tc):
        raise RuntimeError("emitter bug")
    monkeypatch.setattr(codegen, "_generate", boom)
    assert codegen.generate(SUPPORTED_TC) is None
    assert codegen.stats["errors"] == 1
    assert codegen.stats["declined"] == 0
    # Marshalling survives on the interpreter.
    plan = get_plan(SUPPORTED_TC)
    assert plan.tier == "interpreter"
    enc = CDREncoder()
    plan.encode(enc, SUPPORTED_VALUE)
    assert plan.decode(CDRDecoder(enc.getvalue())) == SUPPORTED_VALUE
    compiled.clear_cache()
    codegen.reset_stats()  # the fixture demands errors == 0 on exit


def test_stats_snapshot_reports_runtime_call_counts():
    enc_fn, dec_fn = codegen.generate(SUPPORTED_TC)
    enc = CDREncoder()
    enc_fn(enc, SUPPORTED_VALUE)
    dec_fn(CDRDecoder(enc.getvalue()))
    snap = codegen.stats_snapshot()
    assert snap["encode_calls"] >= 1
    assert snap["decode_calls"] >= 1
    assert snap["generated"] == 1


# -- value handling -----------------------------------------------------------

class _PointObj:
    def __init__(self, x, y):
        self.x = x
        self.y = y


class _SampleObj:
    def __init__(self):
        self.id = 41
        self.name = "n1"
        self.path = [_PointObj(1.5, -2.5)]


def test_struct_encode_accepts_attribute_objects():
    # Servant results are often plain objects, not dicts; the generated
    # encoder must read members either way and emit identical bytes.
    enc_fn, dec_fn = codegen.generate(SUPPORTED_TC)
    by_dict, by_attr = CDREncoder(), CDREncoder()
    enc_fn(by_dict, SUPPORTED_VALUE)
    enc_fn(by_attr, _SampleObj())
    assert by_dict.getvalue() == by_attr.getvalue()
    assert dec_fn(CDRDecoder(by_attr.getvalue())) == SUPPORTED_VALUE


UNION_TC = union_tc("CgEither", tc_long, [
    (1, "num", tc_long),
    (2, "text", tc_string),
    (None, "other", enum_tc("CgColor", ["red", "green", "blue"])),
], default_index=2)

UNION_NO_DEFAULT_TC = union_tc("CgStrict", tc_long, [
    (1, "num", tc_long),
    (2, "text", tc_string),
])


@pytest.mark.parametrize("value", [(1, -7), (2, "hi"), (99, "green")],
                         ids=["arm1", "arm2", "default_arm"])
def test_union_roundtrip_matches_interpreter(value):
    enc_fn, dec_fn = codegen.generate(UNION_TC)
    ref = CDREncoder()
    encode_value_interp(ref, UNION_TC, value)
    enc = CDREncoder()
    enc_fn(enc, value)
    assert enc.getvalue() == ref.getvalue()
    assert dec_fn(CDRDecoder(enc.getvalue())) == value


def test_union_without_default_rejects_unknown_discriminator():
    enc_fn, _dec_fn = codegen.generate(UNION_NO_DEFAULT_TC)
    with pytest.raises(BAD_PARAM):
        enc_fn(CDREncoder(), (42, "nope"))


def test_union_value_must_be_pair():
    enc_fn, _dec_fn = codegen.generate(UNION_TC)
    with pytest.raises(BAD_PARAM):
        enc_fn(CDREncoder(), "not-a-pair")


# -- batch-format cache -----------------------------------------------------

def test_make_batcher_cache_is_bounded():
    # One fixed leaf: a long (4 bytes, 4-aligned).
    batch = make_batcher([("i", 4, 4)])
    from repro.orb.compiled import _BATCH_CACHE_MAX

    # Far more shapes than the cache holds: it never grows past its
    # bound, and a shape asked for again is rebuilt equal.
    first = batch(0, 1)
    for n in range(2, 3 * _BATCH_CACHE_MAX):
        batch(0, n)
        assert len(batch.cache) <= _BATCH_CACHE_MAX
    assert batch(0, 1).format == first.format

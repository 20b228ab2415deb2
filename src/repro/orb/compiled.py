"""Codec plans: the leaf model, the plan cache and per-operation codecs.

The ORB marshals through one :class:`CodecPlan` per TypeCode, resolved
by :func:`get_plan`.  Every plan's ``encode``/``decode`` pair is source
generated by :mod:`repro.orb.codegen` for the depth its root value sits
at: 0 for the plans :func:`get_plan` returns, n + 1 for the value inside
an ``any`` at depth n (:meth:`CodecPlan.at`).  The generator is total,
so there is no second tier.

This module owns what the generated code shares:

- the **fixed-size leaf model** the generator builds on.  Runs of
  fixed-size primitives (including whole fixed-size structs, arrays and
  enums) fuse into a single :class:`struct.Struct` pack/unpack.  CDR
  alignment is relative to the stream start, so a fused run precomputes
  one format per possible start residue (mod 8), with ``x`` pad bytes
  standing in for alignment gaps; :func:`make_batcher` extends that to
  homogeneous sequences/arrays marshalled in one call;
- the ``any`` **call-outs**: :func:`encode_any`/:func:`decode_any`
  marshal the TypeCode (memoised on its plan) and hand the value to the
  plan rooted one level deeper, so no plan checks nesting at run time;
- the **one plan cache**, keyed by structural TypeCode equality, which
  also holds the deeper-rooted variants and bounds them together, and
  :class:`OperationCodec`, one operation's plans resolved together
  (``OperationDef.codec()`` pins it on the definition, so invocations
  never look anything up);
- the **oneway ring** in front of an operation's decoders
  (:meth:`OperationCodec.decode_oneway`), which hands the receivers of
  one fanned-out body copies of a value decoded once before, and the
  TypeCode-driven value copies it hands out.

Hit/miss/generation counters live in ``codegen.stats``.  Equivalence
with the reference interpreter in ``tests/oracles/cdr_interp.py`` --
identical bytes out, identical values back, the same error class, at
every root depth -- is enforced by
``tests/property/test_bimodal_properties.py``.
"""

from __future__ import annotations

import struct as _struct
from typing import Optional

from repro.orb import cdr as _cdr
from repro.orb.cdr import CDRDecoder, CDREncoder
from repro.orb.exceptions import BAD_PARAM
from repro.orb.typecodes import TCKind, TypeCode

_MAX_NESTING = _cdr._MAX_NESTING

#: Fused runs and absorbed structs/arrays are capped at this many leaf
#: primitives; larger shapes use the batched-sequence path instead.
_FUSE_LIMIT = 64


class CodecPlan:
    """The generated encode/decode pair serving *tc* rooted at *depth*.

    ``tc_wire`` is the TypeCode's own marshalled form, memoised by the
    first ``any`` that carries it.  ``_at`` maps a root depth other
    than 0 to this TypeCode's plan for it, one map shared by them all.
    """

    __slots__ = ("tc", "depth", "encode", "decode", "tc_wire", "_at")

    def __init__(self, tc: TypeCode, depth: int) -> None:
        self.tc = tc
        self.depth = depth
        self.encode, self.decode = codegen.generate(tc, depth)
        self.tc_wire: Optional[bytes] = None
        self._at: dict[int, CodecPlan] = {}

    def at(self, depth: int) -> "CodecPlan":
        """This TypeCode's plan for a value sitting *depth* levels deep."""
        plan = self._at.get(depth)
        if plan is None:
            plan = self if depth == self.depth else _variant(self, depth)
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CodecPlan {self.tc!r} at depth {self.depth}>"


# -- fixed-size leaf model ----------------------------------------------------
# A "leaf" is one struct-module field: (fmt_char, size, align).  Flatten
# appends pack-ready leaf values for one conforming value.

_PRIM_LEAF = {
    TCKind.SHORT: ("h", 2),
    TCKind.USHORT: ("H", 2),
    TCKind.LONG: ("i", 4),
    TCKind.ULONG: ("I", 4),
    TCKind.LONGLONG: ("q", 8),
    TCKind.ULONGLONG: ("Q", 8),
    TCKind.FLOAT: ("f", 4),
    TCKind.DOUBLE: ("d", 8),
    # '?' packs by truth value and unpacks to bool, matching the
    # interpreter's ``1 if v else 0`` / ``bool(octet)``.
    TCKind.BOOLEAN: ("?", 1),
    TCKind.OCTET: ("B", 1),
}


def _char_enc(v) -> int:
    if not isinstance(v, str) or len(v) != 1:
        raise BAD_PARAM(f"char must be a 1-character str, got {v!r}")
    return ord(v) & 0xFF


def _enum_convs(tc: TypeCode):
    labels = tc.labels
    name = tc.name
    n = len(labels)

    def conv_enc(value) -> int:
        try:
            index = labels.index(value) if isinstance(value, str) else int(value)
        except ValueError:
            raise BAD_PARAM(
                f"{value!r} is not a label of enum {name}"
            ) from None
        if not 0 <= index < n:
            raise BAD_PARAM(f"enum index {index} out of range for {name}")
        return index

    def conv_dec(index: int) -> str:
        if index >= n:
            raise BAD_PARAM(f"enum index {index} out of range for {name}")
        return labels[index]

    return conv_enc, conv_dec


def _leaf_fn(conv):
    if conv is None:
        def flatten(v, out) -> None:
            out.append(v)
    else:
        def flatten(v, out) -> None:
            out.append(conv(v))
    return flatten


def _fixed_info(tc: TypeCode, depth: int):
    """Return (leaves, flatten) if *tc* is wholly fixed-size.

    Returns None for variable-size types, for types past the nesting
    limit, and for shapes bigger than :data:`_FUSE_LIMIT` leaves.
    """
    if depth > _MAX_NESTING:
        return None
    kind = tc.kind
    if kind is TCKind.ALIAS:
        assert tc.content_type is not None
        return _fixed_info(tc.content_type, depth + 1)
    if kind in (TCKind.NULL, TCKind.VOID):
        def flatten(v, out) -> None:
            if v is not None:
                raise BAD_PARAM(f"void carries no value, got {v!r}")
        return (), flatten
    leaf = _PRIM_LEAF.get(kind)
    if leaf is not None:
        ch, size = leaf
        return ((ch, size, size),), _leaf_fn(None)
    if kind is TCKind.CHAR:
        return (("B", 1, 1),), _leaf_fn(_char_enc)
    if kind is TCKind.ENUM:
        return (("I", 4, 4),), _leaf_fn(_enum_convs(tc)[0])
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        parts = []
        for _name, mtc in tc.members:
            sub = _fixed_info(mtc, depth + 1)
            if sub is None:
                return None
            parts.append(sub)
        leaves = tuple(lf for sub in parts for lf in sub[0])
        if len(leaves) > _FUSE_LIMIT:
            return None
        names = tuple(n for n, _ in tc.members)
        nameset = frozenset(names)
        flattens = tuple(sub[1] for sub in parts)
        tname = tc.name

        def flatten(v, out) -> None:
            if isinstance(v, dict):
                for name, fl in zip(names, flattens):
                    try:
                        member = v[name]
                    except KeyError:
                        raise BAD_PARAM(
                            f"struct {tname} missing member {name!r}"
                        ) from None
                    fl(member, out)
                extra = v.keys() - nameset
                if extra:
                    raise BAD_PARAM(
                        f"struct {tname} has unknown members {sorted(extra)}"
                    )
            else:
                for name, fl in zip(names, flattens):
                    try:
                        member = getattr(v, name)
                    except AttributeError:
                        raise BAD_PARAM(
                            f"struct {tname} value lacks member {name!r}"
                        ) from None
                    fl(member, out)
        return leaves, flatten
    if kind is TCKind.ARRAY:
        assert tc.content_type is not None
        sub = _fixed_info(tc.content_type, depth + 1)
        if sub is None:
            return None
        sub_leaves, sub_fl = sub
        length = tc.length
        if len(sub_leaves) * length > _FUSE_LIMIT or not sub_leaves:
            return None
        leaves = sub_leaves * length

        def flatten(v, out) -> None:
            items = list(v)
            if len(items) != length:
                raise BAD_PARAM(
                    f"array of length {length} got {len(items)} items"
                )
            for item in items:
                sub_fl(item, out)
        return leaves, flatten
    return None


# -- fused-run format construction --------------------------------------------

def _variant_fmts(leaves):
    """Per start-residue (mod 8) format bodies for one leaf run.

    Returns a list of 8 ``(fmt_body, consumed_bytes)`` pairs; alignment
    gaps become ``x`` pad fields so one pack reproduces the
    interpreter's align-then-write byte stream exactly.
    """
    variants = []
    for r in range(8):
        pos = r
        parts = []
        for ch, size, align in leaves:
            pad = (-pos) % align
            if pad:
                parts.append("x" if pad == 1 else "%dx" % pad)
            parts.append(ch)
            pos += pad + size
        variants.append(("".join(parts), pos - r))
    return variants


def _variant_structs(leaves):
    """Like :func:`_variant_fmts` but with compiled Struct objects."""
    cache: dict[str, _struct.Struct] = {}
    out = []
    for fmt, consumed in _variant_fmts(leaves):
        st = cache.get(fmt)
        if st is None:
            st = cache[fmt] = _struct.Struct(">" + fmt)
        out.append(st)
    return out


#: Batch-format cache capacity per batcher (cleared wholesale when
#: full, as the codec's other caches are).
_BATCH_CACHE_MAX = 128


def make_batcher(leaves, lead_ulong: bool = False):
    """Return ``batch_struct(r0, n) -> Struct`` for a fixed leaf run.

    The returned callable builds (and caches, keyed by start residue
    and element count) one big-endian Struct packing *n* repetitions of
    the leaf run starting at stream residue ``r0`` (mod 8), with
    alignment gaps folded in as ``x`` pad fields.  With ``lead_ulong``
    the format is prefixed by a 4-aligned ulong (the sequence count), so
    count and elements marshal in a single ``pack``.

    The cache is exposed as ``batch_struct.cache`` for tests.
    """
    elem_variants = _variant_fmts(leaves)
    consumed = [c for _f, c in elem_variants]
    cache: dict[tuple[int, int], _struct.Struct] = {}
    last_key: Optional[tuple[int, int]] = None
    last_st: Optional[_struct.Struct] = None

    def batch_struct(r0: int, n: int) -> _struct.Struct:
        nonlocal last_key, last_st
        key = (r0, n)
        # Single-entry memo: steady-state callers hit one (residue,
        # count) shape, skipping the dict lookup.
        if key == last_key:
            return last_st
        st = cache.get(key)
        if st is not None:
            last_key, last_st = key, st
            return st
        # Element layout depends on the start residue; walk the residue
        # chain, collapsing as soon as it reaches a fixed point.
        parts = []
        r = r0
        if lead_ulong:
            pad = (-r0) & 3
            if pad:
                parts.append("x" if pad == 1 else "%dx" % pad)
            parts.append("I")
            r = (r0 + pad + 4) & 7
        remaining = n
        while remaining:
            fmt = elem_variants[r][0]
            r2 = (r + consumed[r]) & 7
            if r2 == r:
                parts.append(fmt * remaining)
                break
            parts.append(fmt)
            remaining -= 1
            r = r2
        st = _struct.Struct(">" + "".join(parts))
        if len(cache) >= _BATCH_CACHE_MAX:
            cache.clear()
        cache[key] = st
        last_key, last_st = key, st
        return st

    batch_struct.cache = cache
    return batch_struct


# -- any: the value-dependent call-out ----------------------------------------
# A marshalled TypeCode is a kind ulong plus, for parameterised kinds,
# one length-prefixed encapsulation encoded from its own offset 0: past
# its 4-byte alignment the bytes do not depend on where they sit.  So a
# stream of same-typed anys pays for its TypeCode once — the encoder
# appends ``plan.tc_wire``, the decoder slices the TypeCode's bytes by
# its own length word and looks the plan up by them.

_SIMPLE_TC_WIRES = frozenset(
    k.value.to_bytes(4, "big") for k in _cdr._SIMPLE_KINDS)


def _tc_wire(plan: CodecPlan) -> bytes:
    """Marshal *plan*'s TypeCode and memoise the bytes on it."""
    enc = CDREncoder()
    _cdr.encode_typecode(enc, plan.tc)
    plan.tc_wire = enc.getvalue()
    return plan.tc_wire


def encode_any(enc: CDREncoder, value, depth: int) -> None:
    """Marshal an ``any`` sitting *depth* levels deep: TypeCode, then
    the value through the plan rooted at *depth* + 1."""
    if not isinstance(value, _cdr.Any):
        raise BAD_PARAM(f"expected Any, got {type(value).__name__}")
    inner_tc = value.typecode
    try:
        plan = get_plan(inner_tc)
    except RecursionError:  # hashing a TypeCode nested far past the limit
        raise BAD_PARAM("TypeCode nesting too deep") from None
    enc.align(4)
    enc.write_bytes_raw(plan.tc_wire or _tc_wire(plan))
    plan.at(depth + 1).encode(enc, value.value)


def decode_any(dec: CDRDecoder, depth: int) -> "_cdr.Any":
    """Inverse of :func:`encode_any`."""
    buf = dec._buf
    pos = dec._pos + (-dec._pos & 3)
    end = pos + 4
    if buf[pos:end] not in _SIMPLE_TC_WIRES:
        end += 4 + int.from_bytes(buf[end:end + 4], "big")
    # A truncated or over-long TypeCode has no entry; the slow path
    # below raises for it exactly as it always did.
    plan = _TC_INDEX.get(buf[pos:end]) if end <= len(buf) else None
    if plan is not None:
        codegen.stats["any_tc_hits"] += 1
        dec._pos = end
    else:
        codegen.stats["any_tc_misses"] += 1
        plan = get_plan(_cdr.decode_typecode(dec))
        # Index the canonical wire only: bytes that merely *decode* to
        # this TypeCode (non-zero padding, slack at the end of an
        # encapsulation) are unbounded in number and stay on this path.
        if buf[pos:dec._pos] == (plan.tc_wire or _tc_wire(plan)):
            _TC_INDEX[plan.tc_wire] = plan
    return _cdr.Any(plan.tc, plan.at(depth + 1).decode(dec))


# -- plan cache ---------------------------------------------------------------

#: Plans held at once, the variants of every root depth but 0 included.
_CACHE_MAX = 4096
#: The one codec cache of depth-0 plans, keyed by structural equality so
#: equal TypeCode instances (a fresh one arrives with every ``any`` whose
#: TypeCode misses the wire index) share a plan.  ``TypeCode.__hash__``
#: is memoized and dict lookup short-circuits on identity, so a
#: same-object hit costs no deep comparison.
_CACHE: dict[TypeCode, CodecPlan] = {}
#: Every plan rooted deeper than 0, each held in its TypeCode's shared
#: ``CodecPlan._at`` map; ``len(_CACHE) + len(_VARIANTS) <= _CACHE_MAX``.
_VARIANTS: list[CodecPlan] = []
#: A second key into the same cache, not a cache of its own: canonical
#: TypeCode wire -> the plan in ``_CACHE`` whose ``tc_wire`` it is, so
#: ``len(_TC_INDEX) <= len(_CACHE)``; the two are always dropped together.
_TC_INDEX: dict[bytes, CodecPlan] = {}


def _make_room() -> None:
    if len(_CACHE) + len(_VARIANTS) >= _CACHE_MAX:
        clear_cache()


def get_plan(tc: TypeCode) -> CodecPlan:
    """Return the cached depth-0 codec plan for *tc*, generating on
    first use."""
    plan = _CACHE.get(tc)
    if plan is not None:
        codegen.stats["cache_hits"] += 1
        return plan
    codegen.stats["cache_misses"] += 1
    _make_room()
    plan = _CACHE[tc] = CodecPlan(tc, 0)
    return plan


def _variant(plan: CodecPlan, depth: int) -> CodecPlan:
    """Generate *plan*'s TypeCode rooted at *depth*, held beside it."""
    if depth == 0:
        return get_plan(plan.tc)
    _make_room()
    variant = CodecPlan(plan.tc, depth)
    variant._at = plan._at
    plan._at[depth] = variant
    _VARIANTS.append(variant)
    return variant


def clear_cache() -> None:
    """Drop all cached plans (tests / memory pressure)."""
    _CACHE.clear()
    _TC_INDEX.clear()
    _COPIERS.clear()
    for variant in _VARIANTS:
        variant._at.clear()
    _VARIANTS.clear()


def cache_size() -> int:
    """Plans held, every root depth counted."""
    return len(_CACHE) + len(_VARIANTS)


# -- value copies for the oneway ring -----------------------------------------
# A decoded value's containers are the lists (sequences, arrays), dicts
# (structs, exceptions), ``Any`` boxes and union tuples the generated
# decoder builds; everything else it returns -- str, numbers, bytes, enum
# labels, IORs, TypeCodes -- is immutable and shared by every copy.

def _copier(tc: TypeCode, depth: int = 0):
    """A function rebuilding every container of a decoded *tc* value, or
    None when the value has none (so it is shared as it is).

    The walk stops past ``_MAX_NESTING`` levels: *depth* is relative to
    the value's root, never more than its absolute depth, and the
    decoder raises before building anything that deep."""
    if depth > _MAX_NESTING:
        return None
    kind = tc.kind
    if kind is TCKind.ALIAS:
        return _copier(tc.content_type, depth + 1)
    if kind is TCKind.ANY:
        return _copy_any
    if kind is TCKind.SEQUENCE or kind is TCKind.ARRAY:
        item = _copier(tc.content_type, depth + 1)
        if item is None:
            return list
        return lambda value: [item(x) for x in value]
    if kind is TCKind.STRUCT or kind is TCKind.EXCEPT:
        deep = []
        for name, mtc in tc.members:
            fn = _copier(mtc, depth + 1)
            if fn is not None:
                deep.append((name, fn))
        if not deep:
            return dict

        def copy_struct(value):
            out = dict(value)
            for name, fn in deep:
                out[name] = fn(out[name])
            return out
        return copy_struct
    if kind is TCKind.UNION:
        # The decoder takes the first arm whose label matches, else the
        # default; a label whose arm holds no container maps to None.
        arms: dict = {}
        for label, _name, arm_tc in tc.members:
            if label is not None and label not in arms:
                arms[label] = _copier(arm_tc, depth + 1)
        default = (_copier(tc.members[tc.default_index][2], depth + 1)
                   if 0 <= tc.default_index < len(tc.members) else None)

        def copy_union(value):
            disc, arm = value
            fn = arms.get(disc, default)
            return disc, arm if fn is None else fn(arm)
        return copy_union
    return None


#: ``Any`` payload TypeCode -> its :func:`_copier`; dropped with the
#: plan cache, whose TypeCodes are the only ones a decoded ``Any`` holds.
_COPIERS: dict = {}


def _copy_any(value: "_cdr.Any") -> "_cdr.Any":
    tc = value.typecode
    try:
        fn = _COPIERS[tc]
    except KeyError:
        fn = _COPIERS[tc] = _copier(tc)
    return _cdr.Any(tc, value.value if fn is None else fn(value.value))


def _args_copier(tcs):
    """One function copying a decoded argument tuple of *tcs*, generated
    as a tuple expression over the parameters: a parameter without
    containers is passed through, ``sequence<string>`` is one
    ``list()``."""
    fns = {}
    parts = []
    for i, tc in enumerate(tcs):
        fn = _copier(tc)
        if fn is None:
            parts.append(f"a[{i}]")
        else:
            fns[f"c{i}"] = fn
            parts.append(f"c{i}(a[{i}])")
    if not fns:
        return lambda a: a  # nothing to rebuild: the tuple is immutable
    return eval(f"lambda a: ({', '.join(parts)},)", fns)


#: Distinct oneway argument bodies an :class:`OperationCodec` remembers.
ONEWAY_RING = 4
_NEW = object()     # a body not in the ring
_SEEN = object()    # a body decoded once, its value not kept


# -- per-operation codecs -----------------------------------------------------

class OperationCodec:
    """Pre-resolved plans for one OperationDef's request/reply bodies.

    A oneway's argument body is decoded through :meth:`decode_oneway`,
    a ring of the last :data:`ONEWAY_RING` distinct bodies in front of
    the generated decoders: ``send_oneway_fanout`` marshals a body once
    for many receivers, and every receiver after the second gets a copy
    of a value decoded before instead of decoding the same bytes again.
    """

    __slots__ = ("in_plans", "out_plans", "result_plan", "result_void",
                 "in1_encode", "in1_decode", "result_decode", "_ring",
                 "_copy")

    def __init__(self, odef) -> None:
        self.in_plans = tuple(get_plan(p.tc) for p in odef.in_params())
        self.out_plans = tuple(get_plan(p.tc) for p in odef.out_params())
        self.result_plan = get_plan(odef.result)
        self.result_void = odef.result.kind is TCKind.VOID
        # Single-in-parameter operations are the common RPC shape; the
        # pre-bound plan methods let hot paths skip the generic
        # encode_in/decode_in frames (and their zip/listcomp) entirely.
        one = len(self.in_plans) == 1
        self.in1_encode = self.in_plans[0].encode if one else None
        self.in1_decode = self.in_plans[0].decode if one else None
        self.result_decode = self.result_plan.decode
        #: body bytes -> _SEEN, or the private copy of its arguments
        #: (insertion order is arrival order, so the oldest goes first).
        self._ring: dict = {}
        #: the argument copier, built at the first body seen twice.
        self._copy = None

    def encode_in(self, enc: CDREncoder, args) -> None:
        for plan, value in zip(self.in_plans, args):
            plan.encode(enc, value)

    def decode_in(self, dec: CDRDecoder) -> list:
        return [plan.decode(dec) for plan in self.in_plans]

    def decode_oneway(self, body: bytes) -> tuple:
        """A oneway request's arguments, decoded from *body* at most
        twice while it stays in the ring.

        The first sight of a body decodes it and remembers its bytes
        only; the second decodes again and keeps a private copy of the
        value; every later one gets a fresh copy of the private value,
        so no two receivers share a container.  A body whose decode
        raises is never remembered.
        """
        ring = self._ring
        held = ring.get(body, _NEW)
        if held is _NEW:
            args = self._decode_args(body)
            if len(ring) >= ONEWAY_RING:
                del ring[next(iter(ring))]
            ring[body] = _SEEN
            return args
        if held is _SEEN:
            args = self._decode_args(body)
            copy = self._copy
            if copy is None:
                copy = self._copy = _args_copier(
                    [plan.tc for plan in self.in_plans])
            ring[body] = copy(args)
            return args
        return self._copy(held)

    def _decode_args(self, body: bytes) -> tuple:
        dec = CDRDecoder(body)
        dec1 = self.in1_decode
        if dec1 is not None:
            return (dec1(dec),)
        return tuple([plan.decode(dec) for plan in self.in_plans])


# Imported last: codegen builds on the leaf model above at import time,
# while this module only reaches into codegen when a plan is built.
from repro.orb import codegen  # noqa: E402

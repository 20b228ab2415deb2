"""Generated-source CDR codecs: the ORB's marshalling fast path.

The interpreter in :mod:`repro.orb.cdr` walks the TypeCode graph on
every encode/decode.  This module walks each TypeCode **once**, emits
Python source for a fused encoder and decoder, compiles it with
:func:`exec`, and hands the pair to the plan cache
(``compiled.get_plan``).

What the generated code buys over interpreting:

- **no per-call TypeCode walking**: member extraction, alignment
  residue selection, struct.pack/unpack batching and value rebuilding
  are all straight-line statements specialized to the one TypeCode;
- **constant-folded alignment**: every fused run binds its 8
  per-residue Struct variants (``x`` pads standing in for alignment
  gaps) and selects by ``len(buf) & 7`` / ``pos & 7`` at run time;
- **decode over plain ``bytes``**: ``unpack_from`` reads the decoder's
  buffer in place and a string is ``buf[a:b].decode()``.  The buffer
  was a ``memoryview`` until its indexing, slicing and
  ``str(view, 'utf-8')`` measured slower in CPython than the one short
  copy a ``bytes`` slice costs (two 64-string sequences: 66 -> 48 us);
- **batched homogeneous sequences**: a sequence of fixed-size elements
  flattens through a plain append loop and marshals count + all
  elements in a single ``pack`` (``make_batcher(..., lead_ulong=True)``).

``any`` and object references have a wire shape that depends on the
value, so the generated code *calls out* for them — to
``compiled.encode_any``/``decode_any`` (which apply the nesting rule
at the member's static depth) and to the interpreter's objref pair —
syncing ``dec._pos`` round the call.  Everything around the call-out
(the enclosing struct, sequence or union) is still generated.

:func:`generate` declines only TypeCodes past the nesting limit (the
interpreter owns depth enforcement) and shapes that would nest
generated blocks too deeply; ``compiled.get_plan`` serves those
through the interpreter.

Error containment: generated bodies run inside ``try`` blocks whose
handlers convert any raw Python error into ``BAD_PARAM`` (encode,
plus decode underflow) or ``MARSHAL`` (decode corruption).  The
repo's SystemExceptions derive from plain ``Exception`` only, so a
deliberate ``BAD_PARAM``/``MARSHAL`` raised inside a generated body
or a call-out passes through the handlers untouched.

Byte-for-byte equivalence with the interpreter is enforced by
``tests/property/test_bimodal_properties.py``; hostile input
containment by the codec fuzz in ``repro.orb.fuzz``.
"""

from __future__ import annotations

import keyword
import struct as _struct
from typing import Optional

from repro.orb import cdr as _cdr
from repro.orb import compiled as _c
from repro.orb.exceptions import BAD_PARAM, MARSHAL
from repro.orb.typecodes import TCKind, TypeCode

_MAX_NESTING = _c._MAX_NESTING

#: Generated block-nesting budget (unions/loops); keeps emitted source
#: well clear of any nested-block or indentation compile limits.
_MAX_BLOCKS = 8

#: The codec stack's one stats dict.  ``generated``/``declined``/
#: ``errors`` count generate() outcomes — ``declined`` is an honest
#: refusal (nesting or block budget), ``errors`` a generation bug that
#: fell back to the interpreter and must stay 0; ``cache_hits``/
#: ``cache_misses`` count ``compiled.get_plan`` lookups and
#: ``any_tc_hits``/``any_tc_misses`` ``compiled.decode_any``'s probes
#: of the TypeCode wire index.
stats = {"generated": 0, "declined": 0, "errors": 0, "cache_hits": 0,
         "cache_misses": 0, "any_tc_hits": 0, "any_tc_misses": 0}

#: Call counters shared by every generated function: [encode, decode].
_CALLS = [0, 0]


def reset_stats() -> None:
    for key in stats:
        stats[key] = 0
    _CALLS[0] = _CALLS[1] = 0


def stats_snapshot() -> dict:
    """stats plus the generated-function call counters (benchmarks)."""
    snap = dict(stats)
    snap["encode_calls"] = _CALLS[0]
    snap["decode_calls"] = _CALLS[1]
    return snap


#: Exceptions a generated *encoder* converts to BAD_PARAM: everything a
#: bad value can plausibly raise.  SystemException is NOT derived from
#: any of these, so deliberate CORBA errors pass through.
_EERR = (_struct.error, TypeError, KeyError, AttributeError, ValueError,
         IndexError, OverflowError)
#: Exceptions a generated *decoder* converts to MARSHAL (struct.error is
#: handled first and separately as BAD_PARAM underflow, matching the
#: interpreter's pre-checked underflow class).
_DERR = (TypeError, KeyError, AttributeError, ValueError, IndexError,
         OverflowError)


# -- supportability -----------------------------------------------------------

def _ok(tc: TypeCode, depth: int, blocks: int) -> bool:
    if depth > _MAX_NESTING or blocks > _MAX_BLOCKS:
        return False
    kind = tc.kind
    if kind is TCKind.ALIAS:
        return _ok(tc.content_type, depth + 1, blocks)
    if kind in (TCKind.NULL, TCKind.VOID, TCKind.STRING, TCKind.OCTETSEQ,
                TCKind.CHAR, TCKind.ENUM, TCKind.ANY, TCKind.OBJREF) \
            or kind in _c._PRIM_LEAF:
        return True
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        return all(_ok(mtc, depth + 1, blocks) for _n, mtc in tc.members)
    if kind is TCKind.UNION:
        if not _ok(tc.discriminator_type, depth + 1, blocks):
            return False
        return all(_ok(arm_tc, depth + 1, blocks + 1)
                   for _l, _n, arm_tc in tc.members)
    if kind in (TCKind.SEQUENCE, TCKind.ARRAY):
        content = tc.content_type
        if _c._fixed_info(content, depth + 1) is not None:
            return True  # batched: no generated loop nesting
        return _ok(content, depth + 1, blocks + 1)
    return False


# -- source builder -----------------------------------------------------------

class _Builder:
    """Accumulates source lines plus the exec-globals they reference."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []
        self.n = 0
        self.g = {
            "BAD_PARAM": BAD_PARAM,
            "MARSHAL": MARSHAL,
            "_SERR": _struct.error,
            "_EERR": _EERR,
            "_DERR": _DERR,
            "_char": _c._char_enc,
            "_any_enc": _c.encode_any,
            "_any_dec": _c.decode_any,
            "_ref_enc": _cdr._encode_objref,
            "_ref_dec": _cdr._decode_objref,
            "_N": _CALLS,
            "len": len, "isinstance": isinstance, "type": type,
            "str": str, "bytes": bytes, "bytearray": bytearray,
            "memoryview": memoryview, "chr": chr, "list": list,
            "dict": dict,
            "range": range, "sorted": sorted, "repr": repr,
            "getattr": getattr,
            "TypeError": TypeError, "ValueError": ValueError,
            "KeyError": KeyError, "IndexError": IndexError,
            "AttributeError": AttributeError,
            "__builtins__": {},
        }

    def sym(self, prefix: str, obj) -> str:
        self.n += 1
        name = f"_{prefix}{self.n}"
        self.g[name] = obj
        return name

    def tmp(self, prefix: str = "t") -> str:
        self.n += 1
        return f"_{prefix}{self.n}"

    def emit(self, ind: int, line: str) -> None:
        self.lines.append("    " * ind + line)


# -- encoder emission ---------------------------------------------------------
# A pending "run" is a list of ((fmt_char, size, align), value_expr)
# pairs; flushing emits one pack through the per-residue Struct variants.

def _flush_enc(b: _Builder, run: list, ind: int) -> None:
    if not run:
        return
    leaves = tuple(leaf for leaf, _e in run)
    vs = b.sym("vs", _c._variant_structs(leaves))
    exprs = ", ".join(e for _l, e in run)
    b.emit(ind, f"buf += {vs}[len(buf) & 7].pack({exprs})")
    del run[:]


def _seq_fast_item(b: _Builder, tc: TypeCode):
    """Per-element append-expression templates for the batched-sequence
    fast flatten loop, or None when the element needs the strict
    leaf-model flatten.  Returns (templates, first_item_dict_len).

    The bound-append loop is deliberate: C-level alternatives measured
    slower here (itemgetter+map+chain pays a tuple per element and the
    ``*generator`` splat materializes item by item; strided slice
    assignment pays two passes), so two appends per element wins."""
    while tc.kind is TCKind.ALIAS:
        tc = tc.content_type
    kind = tc.kind
    if kind in _c._PRIM_LEAF:
        return ["{e}"], None
    if kind is TCKind.CHAR:
        return ["_char({e})"], None
    if kind is TCKind.ENUM:
        ce = b.sym("ec", _c._enum_convs(tc)[0])
        return [ce + "({e})"], None
    if kind in (TCKind.STRUCT, TCKind.EXCEPT) and tc.members:
        templates = []
        for name, mtc in tc.members:
            while mtc.kind is TCKind.ALIAS:
                mtc = mtc.content_type
            mk = mtc.kind
            item = "{e}[" + repr(name) + "]"
            if mk in _c._PRIM_LEAF:
                templates.append(item)
            elif mk is TCKind.CHAR:
                templates.append("_char(" + item + ")")
            elif mk is TCKind.ENUM:
                ce = b.sym("ec", _c._enum_convs(mtc)[0])
                templates.append(ce + "(" + item + ")")
            else:
                return None
        return templates, len(tc.members)
    return None


def _emit_batched_enc(b: _Builder, content: TypeCode, finfo, items: str,
                      nv: str, run: list, ind: int,
                      lead_count: bool) -> None:
    """Flatten *items* and emit one batched pack (count-fused when
    ``lead_count``)."""
    leaves, flatten, _uf = finfo
    bc = b.sym("bc", _c.make_batcher(leaves, lead_ulong=lead_count))
    ctc = content
    while ctc.kind is TCKind.ALIAS:
        ctc = ctc.content_type
    if ctc.kind in _c._PRIM_LEAF:
        # Plain primitive elements: splat the items list straight into
        # pack — no flatten pass at all.  Bad values fail inside pack
        # (struct.error) and surface as BAD_PARAM via the wrapper.
        _flush_enc(b, run, ind)
        if lead_count:
            b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv})"
                        f".pack({nv}, *{items})")
        else:
            b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv}).pack(*{items})")
        return
    ov = b.tmp("w")
    ev = b.tmp("e")
    if ctc.kind is TCKind.CHAR:
        _flush_enc(b, run, ind)
        b.emit(ind, f"{ov} = [_char({ev}) for {ev} in {items}]")
        if lead_count:
            b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv})"
                        f".pack({nv}, *{ov})")
        else:
            b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv}).pack(*{ov})")
        return
    if ctc.kind is TCKind.ENUM:
        ce = b.sym("ec", _c._enum_convs(ctc)[0])
        _flush_enc(b, run, ind)
        b.emit(ind, f"{ov} = [{ce}({ev}) for {ev} in {items}]")
        if lead_count:
            b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv})"
                        f".pack({nv}, *{ov})")
        else:
            b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv}).pack(*{ov})")
        return
    fast = _seq_fast_item(b, content)
    b.emit(ind, f"{ov} = []")
    if fast is None:
        fl = b.sym("fl", flatten)
        b.emit(ind, f"for {ev} in {items}: {fl}({ev}, {ov})")
    else:
        templates, gate = fast
        ap = b.tmp("ap")
        b.emit(ind, f"{ap} = {ov}.append")
        b.emit(ind, "try:")
        if gate is not None:
            # Dict-shaped elements: vet the first item's shape, then run
            # the unchecked loop; any non-conforming later item raises
            # into the strict fallback below.
            b.emit(ind + 1,
                   f"if {items} and (type({items}[0]) is not dict"
                   f" or len({items}[0]) != {gate}):")
            b.emit(ind + 2, "raise TypeError")
        body = "; ".join(
            f"{ap}({tpl.format(e=ev)})" for tpl in templates)
        b.emit(ind + 1, f"for {ev} in {items}: {body}")
        b.emit(ind, "except (TypeError, KeyError, IndexError,"
                    " AttributeError):")
        fl = b.sym("fl", flatten)
        b.emit(ind + 1, f"del {ov}[:]")
        b.emit(ind + 1, f"for {ev} in {items}: {fl}({ev}, {ov})")
    _flush_enc(b, run, ind)
    if lead_count:
        b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv}).pack({nv}, *{ov})")
    else:
        b.emit(ind, f"buf += {bc}(len(buf) & 7, {nv}).pack(*{ov})")


def _emit_encode(b: _Builder, tc: TypeCode, expr: str, run: list,
                 ind: int, depth: int) -> None:
    """Emit statements encoding *expr* as *tc*.  *depth* is the
    interpreter recursion depth at which *tc* sits, which only the
    ``any`` call-out needs."""
    kind = tc.kind
    if kind is TCKind.ALIAS:
        _emit_encode(b, tc.content_type, expr, run, ind, depth + 1)
        return
    if kind in (TCKind.NULL, TCKind.VOID):
        msg = b.sym("ms", "void carries no value, got ")
        b.emit(ind, f"if {expr} is not None:")
        b.emit(ind + 1, f"raise BAD_PARAM({msg} + repr({expr}))")
        return
    leaf = _c._PRIM_LEAF.get(kind)
    if leaf is not None:
        ch, size = leaf
        run.append(((ch, size, size), expr))
        return
    if kind is TCKind.CHAR:
        run.append((("B", 1, 1), f"_char({expr})"))
        return
    if kind is TCKind.ENUM:
        ce = b.sym("ec", _c._enum_convs(tc)[0])
        run.append((("I", 4, 4), f"{ce}({expr})"))
        return
    if kind is TCKind.STRING:
        t = b.tmp("s")
        d = b.tmp("d")
        msg = b.sym("ms", "expected str, got ")
        b.emit(ind, f"{t} = {expr}")
        b.emit(ind, f"if not isinstance({t}, str):")
        b.emit(ind + 1, f"raise BAD_PARAM({msg} + type({t}).__name__)")
        b.emit(ind, f"{d} = {t}.encode('utf-8')")
        run.append((("I", 4, 4), f"len({d}) + 1"))
        _flush_enc(b, run, ind)
        b.emit(ind, f"buf += {d}")
        b.emit(ind, "buf.append(0)")
        return
    if kind is TCKind.OCTETSEQ:
        t = b.tmp("o")
        msg = b.sym("ms", "expected bytes, got ")
        b.emit(ind, f"{t} = {expr}")
        b.emit(ind, f"if not isinstance({t}, (bytes, bytearray,"
                    f" memoryview)):")
        b.emit(ind + 1, f"raise BAD_PARAM({msg} + type({t}).__name__)")
        run.append((("I", 4, 4), f"len({t})"))
        _flush_enc(b, run, ind)
        b.emit(ind, f"buf += {t}")
        return
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        names = [n for n, _ in tc.members]
        if expr.isidentifier():
            t = expr
        else:
            t = b.tmp("v")
            b.emit(ind, f"{t} = {expr}")
        mtemps = [b.tmp("m") for _ in names]
        msg = b.sym("ms", f"struct {tc.name} wrong members: ")
        b.emit(ind, f"if isinstance({t}, dict):")
        b.emit(ind + 1, f"if len({t}) != {len(names)}:")
        b.emit(ind + 2, f"raise BAD_PARAM({msg} + repr(sorted({t})))")
        if names:
            b.emit(ind + 1, "; ".join(
                f"{mt} = {t}[{nm!r}]" for mt, nm in zip(mtemps, names)))
        else:
            b.emit(ind + 1, "pass")
        b.emit(ind, "else:")
        if not names:
            b.emit(ind + 1, "pass")
        elif all(nm.isidentifier() and not keyword.iskeyword(nm)
                 for nm in names):
            b.emit(ind + 1, "; ".join(
                f"{mt} = {t}.{nm}" for mt, nm in zip(mtemps, names)))
        else:  # IDL allows ``from``/``pass``/...; a wire name, anything
            b.emit(ind + 1, "; ".join(
                f"{mt} = getattr({t}, {nm!r})"
                for mt, nm in zip(mtemps, names)))
        for mt, (_nm, mtc) in zip(mtemps, tc.members):
            _emit_encode(b, mtc, mt, run, ind, depth + 1)
        return
    if kind is TCKind.UNION:
        dt = b.tmp("d")
        it = b.tmp("i")
        msg = b.sym(
            "ms", f"union {tc.name} value must be (discriminator, value)")
        b.emit(ind, "try:")
        b.emit(ind + 1, f"{dt}, {it} = {expr}")
        b.emit(ind, "except (TypeError, ValueError):")
        b.emit(ind + 1, f"raise BAD_PARAM({msg}) from None")
        _emit_encode(b, tc.discriminator_type, dt, run, ind, depth + 1)
        _flush_enc(b, run, ind)
        nomsg = b.sym(
            "ms", f"union {tc.name}: no arm for discriminator ")
        default = None
        if 0 <= tc.default_index < len(tc.members):
            default = tc.members[tc.default_index][2]

        def _arm_body(arm_tc: TypeCode, aind: int) -> None:
            mark = len(b.lines)
            arm_run: list = []
            _emit_encode(b, arm_tc, it, arm_run, aind, depth + 1)
            _flush_enc(b, arm_run, aind)
            if len(b.lines) == mark:
                b.emit(aind, "pass")

        kw = "if"
        for label, _name, arm_tc in tc.members:
            if label is None:
                continue
            lab = b.sym("lb", label)
            b.emit(ind, f"{kw} {dt} == {lab}:")
            _arm_body(arm_tc, ind + 1)
            kw = "elif"
        if kw == "if":  # no labelled arms at all
            if default is not None:
                _arm_body(default, ind)
            else:
                b.emit(ind, f"raise BAD_PARAM({nomsg} + repr({dt}))")
        else:
            b.emit(ind, "else:")
            if default is not None:
                _arm_body(default, ind + 1)
            else:
                b.emit(ind + 1, f"raise BAD_PARAM({nomsg} + repr({dt}))")
        return
    if kind is TCKind.SEQUENCE:
        content = tc.content_type
        t = b.tmp("q")
        nv = b.tmp("n")
        b.emit(ind, f"{t} = {expr} if type({expr}) is list"
                    f" else list({expr})")
        b.emit(ind, f"{nv} = len({t})")
        if tc.length:
            msg = b.sym("ms", f"sequence bound {tc.length} exceeded ")
            b.emit(ind, f"if {nv} > {tc.length}:")
            b.emit(ind + 1, f"raise BAD_PARAM({msg} + repr({nv}))")
        finfo = _c._fixed_info(content, 1)
        if finfo is not None and finfo[0]:
            _emit_batched_enc(b, content, finfo, t, nv, run, ind,
                              lead_count=True)
        else:
            run.append((("I", 4, 4), nv))
            _flush_enc(b, run, ind)
            ev = b.tmp("e")
            b.emit(ind, f"for {ev} in {t}:")
            mark = len(b.lines)
            item_run: list = []
            _emit_encode(b, content, ev, item_run, ind + 1, depth + 1)
            _flush_enc(b, item_run, ind + 1)
            if len(b.lines) == mark:
                b.emit(ind + 1, "pass")
        return
    if kind is TCKind.ARRAY:
        content = tc.content_type
        length = tc.length
        t = b.tmp("a")
        b.emit(ind, f"{t} = {expr} if type({expr}) is list"
                    f" else list({expr})")
        msg = b.sym("ms", f"array of length {length} got ")
        b.emit(ind, f"if len({t}) != {length}:")
        b.emit(ind + 1, f"raise BAD_PARAM({msg} + repr(len({t}))"
                        " + ' items')")
        whole = _c._fixed_info(tc, 1)
        if whole is not None and whole[0]:
            # Small fixed array: unroll elements straight into the run.
            for i in range(length):
                _emit_encode(b, content, f"{t}[{i}]", run, ind, depth + 1)
            return
        finfo = _c._fixed_info(content, 1)
        if finfo is not None and finfo[0]:
            _emit_batched_enc(b, content, finfo, t, str(length), run, ind,
                              lead_count=False)
        else:
            _flush_enc(b, run, ind)
            ev = b.tmp("e")
            b.emit(ind, f"for {ev} in {t}:")
            mark = len(b.lines)
            item_run = []
            _emit_encode(b, content, ev, item_run, ind + 1, depth + 1)
            _flush_enc(b, item_run, ind + 1)
            if len(b.lines) == mark:
                b.emit(ind + 1, "pass")
        return
    if kind is TCKind.ANY:
        _flush_enc(b, run, ind)
        b.emit(ind, f"_any_enc(enc, {expr}, {depth})")
        return
    if kind is TCKind.OBJREF:
        _flush_enc(b, run, ind)
        b.emit(ind, f"_ref_enc(enc, {expr})")
        return
    raise _Unsupported(kind)  # pragma: no cover - guarded by _ok


class _Unsupported(Exception):
    pass


# -- decoder emission ---------------------------------------------------------

def _ix(v: str, base, off: int) -> str:
    """Index expression into unpack tuple *v* at *base* + *off*."""
    if isinstance(base, int):
        return f"{v}[{base + off}]"
    if off == 0:
        return f"{v}[{base}]"
    return f"{v}[{base} + {off}]"


def _dec_expr(b: _Builder, tc: TypeCode, v: str, base):
    """Value-rebuilding expression over unpack tuple *v* for a wholly
    fixed-size *tc*; returns (expr, leaves_consumed)."""
    kind = tc.kind
    if kind is TCKind.ALIAS:
        return _dec_expr(b, tc.content_type, v, base)
    if kind in (TCKind.NULL, TCKind.VOID):
        return "None", 0
    if kind in _c._PRIM_LEAF:
        return _ix(v, base, 0), 1
    if kind is TCKind.CHAR:
        return f"chr({_ix(v, base, 0)})", 1
    if kind is TCKind.ENUM:
        cd = b.sym("dc", _c._enum_convs(tc)[1])
        return f"{cd}({_ix(v, base, 0)})", 1
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        parts = []
        off = 0
        for name, mtc in tc.members:
            e, n = _dec_expr(
                b, mtc, v,
                base + off if isinstance(base, int) else f"{base} + {off}"
                if off else base)
            parts.append(f"{name!r}: {e}")
            off += n
        return "{" + ", ".join(parts) + "}", off
    if kind is TCKind.ARRAY:
        parts = []
        off = 0
        for _ in range(tc.length):
            e, n = _dec_expr(
                b, tc.content_type, v,
                base + off if isinstance(base, int) else f"{base} + {off}"
                if off else base)
            parts.append(e)
            off += n
        return "[" + ", ".join(parts) + "]", off
    raise _Unsupported(kind)  # pragma: no cover - guarded by _fixed_info


class _DecRun:
    """Pending fixed-leaf run for the decoder: leaves accumulate until a
    variable-size step forces one fused unpack, at which point deferred
    value assignments are emitted against the unpack tuple."""

    def __init__(self, b: _Builder) -> None:
        self.b = b
        self.leaves: list = []
        self.pending: list = []  # (target, tc, start_index)

    def add(self, tc: TypeCode, leaves, target: str) -> None:
        self.pending.append((target, tc, len(self.leaves)))
        self.leaves.extend(leaves)

    def add_count(self) -> int:
        i = len(self.leaves)
        self.leaves.append(("I", 4, 4))
        return i

    def flush(self, ind: int) -> Optional[str]:
        b = self.b
        var = None
        if self.leaves:
            vs = b.sym("vs", _c._variant_structs(tuple(self.leaves)))
            sv = b.tmp("sv")
            var = b.tmp("v")
            b.emit(ind, f"{sv} = {vs}[pos & 7]")
            b.emit(ind, f"{var} = {sv}.unpack_from(buf, pos);"
                        f" pos += {sv}.size")
        for target, tc, start in self.pending:
            expr, _n = _dec_expr(b, tc, var, start)
            b.emit(ind, f"{target} = {expr}")
        self.leaves = []
        self.pending = []
        return var


def _emit_batched_dec(b: _Builder, content: TypeCode, finfo, nv, target: str,
                      ind: int) -> None:
    """Unpack *nv* fixed-size elements in one batch into *target*."""
    leaves = finfo[0]
    k = len(leaves)
    min_elem = sum(size for _ch, size, _a in leaves)
    bc = b.sym("bc", _c.make_batcher(leaves))
    # Bound allocation before building an O(n) format for a garbage
    # count — a sequence's off the wire, or an array's off a TypeCode
    # that itself came off the wire inside an any.
    msg = b.sym("ms", "CDR underflow: batched elements need ")
    b.emit(ind, f"if {nv} * {min_elem} > end - pos:")
    b.emit(ind + 1,
           f"raise BAD_PARAM({msg} + repr({nv} * {min_elem})"
           " + ' bytes')")
    b.emit(ind, f"if {nv}:")
    sv = b.tmp("bs")
    bv = b.tmp("bv")
    b.emit(ind + 1, f"{sv} = {bc}(pos & 7, {nv})")
    b.emit(ind + 1, f"{bv} = {sv}.unpack_from(buf, pos);"
                    f" pos += {sv}.size")
    if k == 1:
        expr, _n = _dec_expr(b, content, bv, "__x__")
        if expr == f"{bv}[__x__]":
            b.emit(ind + 1, f"{target} = list({bv})")
        else:
            xv = b.tmp("x")
            b.emit(ind + 1,
                   f"{target} = [{expr.replace(f'{bv}[__x__]', xv)}"
                   f" for {xv} in {bv}]")
    else:
        iv = b.tmp("i")
        expr, _n = _dec_expr(b, content, bv, iv)
        b.emit(ind + 1, f"{target} = [{expr}"
                        f" for {iv} in range(0, {k} * {nv}, {k})]")
    b.emit(ind, "else:")
    b.emit(ind + 1, f"{target} = []")


def _emit_decode(b: _Builder, st: _DecRun, tc: TypeCode, target: str,
                 ind: int, depth: int) -> None:
    kind = tc.kind
    if kind is TCKind.ALIAS:
        _emit_decode(b, st, tc.content_type, target, ind, depth + 1)
        return
    finfo = _c._fixed_info(tc, 1)
    if finfo is not None:
        st.add(tc, finfo[0], target)
        return
    if kind is TCKind.STRING:
        ci = st.add_count()
        v = st.flush(ind)
        lv = b.tmp("l")
        npv = b.tmp("p")
        msg = b.sym("ms", "CDR underflow or missing NUL reading string")
        b.emit(ind, f"{lv} = {v}[{ci}]")
        b.emit(ind, f"{npv} = pos + {lv}")
        b.emit(ind, f"if {lv} == 0 or {npv} > end or buf[{npv} - 1]:")
        b.emit(ind + 1, f"raise BAD_PARAM({msg})")
        b.emit(ind, f"{target} = buf[pos:{npv} - 1].decode()")
        b.emit(ind, f"pos = {npv}")
        return
    if kind is TCKind.OCTETSEQ:
        ci = st.add_count()
        v = st.flush(ind)
        npv = b.tmp("p")
        msg = b.sym("ms", "CDR underflow reading octet sequence")
        b.emit(ind, f"{npv} = pos + {v}[{ci}]")
        b.emit(ind, f"if {npv} > end:")
        b.emit(ind + 1, f"raise BAD_PARAM({msg})")
        b.emit(ind, f"{target} = buf[pos:{npv}]")
        b.emit(ind, f"pos = {npv}")
        return
    if kind is TCKind.SEQUENCE:
        content = tc.content_type
        ci = st.add_count()
        v = st.flush(ind)
        nv = b.tmp("n")
        b.emit(ind, f"{nv} = {v}[{ci}]")
        cf = _c._fixed_info(content, 1)
        if cf is not None and cf[0]:
            _emit_batched_dec(b, content, cf, nv, target, ind)
        else:
            msg = b.sym("ms", "sequence count exceeds remaining bytes: ")
            b.emit(ind, f"if {nv} > end - pos:")
            b.emit(ind + 1, f"raise MARSHAL({msg} + repr({nv}))")
            b.emit(ind, f"{target} = []")
            ap = b.tmp("ap")
            ev = b.tmp("e")
            et = b.tmp("x")
            b.emit(ind, f"{ap} = {target}.append")
            b.emit(ind, f"for {ev} in range({nv}):")
            inner = _DecRun(b)
            _emit_decode(b, inner, content, et, ind + 1, depth + 1)
            inner.flush(ind + 1)
            b.emit(ind + 1, f"{ap}({et})")
        return
    if kind is TCKind.ARRAY:
        content = tc.content_type
        length = tc.length
        st.flush(ind)
        cf = _c._fixed_info(content, 1)
        if cf is not None and cf[0]:
            _emit_batched_dec(b, content, cf, length, target, ind)
        else:
            b.emit(ind, f"{target} = []")
            ap = b.tmp("ap")
            ev = b.tmp("e")
            et = b.tmp("x")
            p0 = b.tmp("p")
            # Same rule, same class as the interpreter: an element that
            # consumed nothing makes a wire-supplied length free.
            msg = b.sym("ms", f"array length {length} of zero-width"
                              " elements exceeds remaining bytes")
            b.emit(ind, f"{ap} = {target}.append")
            b.emit(ind, f"{p0} = pos")
            b.emit(ind, f"for {ev} in range({length}):")
            inner = _DecRun(b)
            _emit_decode(b, inner, content, et, ind + 1, depth + 1)
            inner.flush(ind + 1)
            b.emit(ind + 1, f"{ap}({et})")
            b.emit(ind + 1, f"if pos == {p0} and {length} > end - pos:")
            b.emit(ind + 2, f"raise MARSHAL({msg})")
        return
    if kind in (TCKind.STRUCT, TCKind.EXCEPT):
        mtemps = []
        for name, mtc in tc.members:
            mt = b.tmp("m")
            _emit_decode(b, st, mtc, mt, ind, depth + 1)
            mtemps.append((name, mt))
        st.flush(ind)
        display = ", ".join(f"{nm!r}: {mt}" for nm, mt in mtemps)
        b.emit(ind, f"{target} = {{{display}}}")
        return
    if kind is TCKind.UNION:
        dt = b.tmp("d")
        at = b.tmp("w")
        _emit_decode(b, st, tc.discriminator_type, dt, ind, depth + 1)
        st.flush(ind)
        nomsg = b.sym(
            "ms", f"union {tc.name}: no arm for discriminator ")
        default = None
        if 0 <= tc.default_index < len(tc.members):
            default = tc.members[tc.default_index][2]

        def _arm_body(arm_tc: TypeCode, aind: int) -> None:
            inner = _DecRun(b)
            _emit_decode(b, inner, arm_tc, at, aind, depth + 1)
            inner.flush(aind)

        kw = "if"
        for label, _name, arm_tc in tc.members:
            if label is None:
                continue
            lab = b.sym("lb", label)
            b.emit(ind, f"{kw} {dt} == {lab}:")
            _arm_body(arm_tc, ind + 1)
            kw = "elif"
        if kw == "if":
            if default is not None:
                _arm_body(default, ind)
            else:
                b.emit(ind, f"raise BAD_PARAM({nomsg} + repr({dt}))")
        else:
            b.emit(ind, "else:")
            if default is not None:
                _arm_body(default, ind + 1)
            else:
                b.emit(ind + 1, f"raise BAD_PARAM({nomsg} + repr({dt}))")
        b.emit(ind, f"{target} = ({dt}, {at})")
        return
    if kind in (TCKind.ANY, TCKind.OBJREF):
        # Call-out: hand the decoder the cursor, take it back after.
        st.flush(ind)
        call = (f"_any_dec(dec, {depth})" if kind is TCKind.ANY
                else "_ref_dec(dec)")
        b.emit(ind, "dec._pos = pos")
        b.emit(ind, f"{target} = {call}")
        b.emit(ind, "pos = dec._pos")
        return
    raise _Unsupported(kind)  # pragma: no cover - guarded by _ok


# -- top-level assembly -------------------------------------------------------

def _generate(tc: TypeCode):
    name = tc.name or tc.kind.name.lower()
    b = _Builder(name)
    emsg = b.sym("ms", f"cannot marshal value as {name}: ")
    umsg = b.sym("ms", f"CDR underflow decoding {name}: ")
    dmsg = b.sym("ms", f"cannot unmarshal {name}: ")

    b.emit(0, "def _enc(enc, value):")
    b.emit(1, "_N[0] += 1")
    b.emit(1, "buf = enc._buf")
    b.emit(1, "try:")
    mark = len(b.lines)
    run: list = []
    _emit_encode(b, tc, "value", run, 2, 0)
    _flush_enc(b, run, 2)
    if len(b.lines) == mark:
        b.emit(2, "pass")
    b.emit(1, "except _EERR as exc:")
    b.emit(2, f"raise BAD_PARAM({emsg} + repr(exc)) from None")

    b.emit(0, "def _dec(dec):")
    b.emit(1, "_N[1] += 1")
    b.emit(1, "buf = dec._buf")
    b.emit(1, "pos = dec._pos")
    b.emit(1, "end = len(buf)")
    b.emit(1, "try:")
    st = _DecRun(b)
    _emit_decode(b, st, tc, "_r", 2, 0)
    st.flush(2)
    b.emit(1, "except _SERR as exc:")
    b.emit(2, f"raise BAD_PARAM({umsg} + repr(exc)) from None")
    b.emit(1, "except _DERR as exc:")
    b.emit(2, f"raise MARSHAL({dmsg} + repr(exc)) from None")
    b.emit(1, "dec._pos = pos")
    b.emit(1, "return _r")

    source = "\n".join(b.lines) + "\n"
    # repr: the name may come off the wire (a TypeCode inside an any)
    # and compile() rejects a NUL in its filename.
    code = compile(source, f"<codegen:{name!r}>", "exec")
    exec(code, b.g)
    enc_fn = b.g["_enc"]
    dec_fn = b.g["_dec"]
    enc_fn.__codegen_source__ = dec_fn.__codegen_source__ = source
    return enc_fn, dec_fn


def generate(tc: TypeCode):
    """Return a freshly generated (encode, decode) pair for *tc*, or
    None when generation is declined (nesting limit, block budget) or
    fails; ``compiled.get_plan`` caches the result and serves a None
    through the interpreter."""
    if not _ok(tc, 0, 0):
        stats["declined"] += 1
        return None
    try:
        pair = _generate(tc)
    except Exception:
        # A generation bug must never take down marshalling — the
        # interpreter is always a correct fallback.  Booked apart from
        # honest declines: the test suite demands errors == 0.
        stats["errors"] += 1
        return None
    stats["generated"] += 1
    return pair

"""Unit tests for the IDL compiler: lexer, parser, codegen."""

import pytest

from repro.idl import compile_idl, parse, tokenize
from repro.idl.check import check_specification
from repro.idl.codegen import IdlSemanticError
from repro.idl.lexer import IdlLexError
from repro.idl.parser import IdlSyntaxError
from repro.idl import idlast as ast
from repro.orb.exceptions import UserException
from repro.orb.typecodes import TCKind
from repro.util.diagnostics import Diagnostics

from tests.oracles.codec import decode_one, encode_one


class TestLexer:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("interface Foo")
        assert (toks[0].kind, toks[0].value) == ("kw", "interface")
        assert (toks[1].kind, toks[1].value) == ("ident", "Foo")
        assert toks[-1].kind == "eof"

    def test_comments_stripped(self):
        toks = tokenize("a // line comment\n/* block\ncomment */ b")
        assert [t.value for t in toks[:-1]] == ["a", "b"]

    def test_line_numbers_tracked(self):
        toks = tokenize("a\n\nb")
        assert toks[0].line == 1
        assert toks[1].line == 3

    def test_scoped_name_token(self):
        toks = tokenize("A::B")
        assert [t.value for t in toks[:-1]] == ["A", "::", "B"]

    def test_literals(self):
        toks = tokenize('42 0x1F 3.5 1e3 "str" \'c\'')
        kinds = [t.kind for t in toks[:-1]]
        assert kinds == ["int", "int", "float", "float", "string", "char"]

    def test_bad_character_raises(self):
        with pytest.raises(IdlLexError):
            tokenize("interface $bad")

    def test_pragma_token(self):
        toks = tokenize('#pragma prefix "omg.org"\nmodule M {};')
        assert toks[0].kind == "pragma"


class TestParser:
    def test_empty_module(self):
        spec = parse("module M {};")
        (mod,) = spec.definitions
        assert isinstance(mod, ast.ModuleDecl)
        assert mod.name == "M"
        assert mod.body == []

    def test_interface_with_inheritance(self):
        spec = parse("""
            interface A {};
            interface B {};
            interface C : A, B {};
        """)
        c = spec.definitions[2]
        assert [b.text for b in c.bases] == ["A", "B"]

    def test_operation_shapes(self):
        spec = parse("""
            interface I {
              void nop();
              long add(in long a, in long b);
              oneway void fire(in string tag);
              string both(inout string s, out long n);
            };
        """)
        ops = {o.name: o for o in spec.definitions[0].body}
        assert ops["nop"].result is None
        assert ops["add"].result == ast.PrimitiveType("long")
        assert ops["fire"].oneway
        assert [p.mode for p in ops["both"].params] == ["inout", "out"]

    def test_raises_clause(self):
        spec = parse("""
            exception E { string what; };
            interface I { void f() raises (E); };
        """)
        op_decl = spec.definitions[1].body[0]
        assert [r.text for r in op_decl.raises] == ["E"]

    def test_attributes(self):
        spec = parse("""
            interface I {
              attribute long x, y;
              readonly attribute string name;
            };
        """)
        attrs = spec.definitions[0].body
        assert [a.name for a in attrs] == ["x", "y", "name"]
        assert attrs[2].readonly

    def test_struct_multi_declarators(self):
        spec = parse("struct S { long a, b; string c; };")
        members = spec.definitions[0].members
        assert [m.name for m in members] == ["a", "b", "c"]

    def test_typedef_with_array_dims(self):
        spec = parse("typedef long Grid[2][3];")
        td = spec.definitions[0]
        assert isinstance(td.type, ast.ArrayOf)
        assert td.type.dims == (2, 3)

    def test_sequence_with_bound(self):
        spec = parse("typedef sequence<string, 10> Names;")
        td = spec.definitions[0]
        assert td.type.bound == 10

    def test_union_with_default(self):
        spec = parse("""
            union U switch (long) {
              case 1: long i;
              case 2:
              case 3: string s;
              default: double d;
            };
        """)
        u = spec.definitions[0]
        assert [a.labels for a in u.arms] == [[1], [2, 3], [None]]

    def test_const_declarations(self):
        spec = parse("""
            const long A = 5;
            const double B = -2.5;
            const string C = "hi";
            const boolean D = TRUE;
        """)
        values = [d.value for d in spec.definitions]
        assert values == [5, -2.5, "hi", True]

    def test_pragma_prefix_captured(self):
        spec = parse('#pragma prefix "omg.org"\nmodule M {};')
        assert spec.prefix == "omg.org"

    @pytest.mark.parametrize("source", [
        "module M {",                     # unterminated
        "interface I { void f() };",      # missing ';' after op... actually missing ( )
        "struct S { long; };",            # missing member name
        "interface I : {};",              # missing base
        "typedef;",
        "union U switch (long) { long i; };",  # missing case
    ])
    def test_syntax_errors(self, source):
        with pytest.raises(IdlSyntaxError):
            parse(source)

    def test_unsigned_variants(self):
        spec = parse("struct S { unsigned short a; unsigned long b; "
                     "unsigned long long c; long long d; };")
        names = [m.type.name for m in spec.definitions[0].members]
        assert names == ["unsigned short", "unsigned long",
                         "unsigned long long", "long long"]


class TestCodegen:
    def test_full_module_compiles(self):
        mod = compile_idl("""
            module Shop {
              enum Size { small, large };
              struct Item { string name; double price; Size size; };
              typedef sequence<Item> Items;
              exception SoldOut { string item; };
              interface Store {
                readonly attribute string name;
                Items list_items();
                void buy(in string name) raises (SoldOut);
              };
            };
        """)
        shop = mod.Shop
        assert shop.Item.kind is TCKind.STRUCT
        assert shop.Items.kind is TCKind.ALIAS
        assert issubclass(shop.SoldOut, UserException)
        assert shop.Store.repo_id == "IDL:Shop/Store:1.0"
        assert "_get_name" in shop.Store.operations
        assert shop.Store.operations["buy"].raises[0].name == "SoldOut"

    def test_prefix_in_repo_ids(self):
        mod = compile_idl('#pragma prefix "acme.com"\n'
                          "module M { interface I {}; };")
        assert mod.M.I.repo_id == "IDL:acme.com/M/I:1.0"

    def test_compiled_typecodes_marshal(self):
        mod = compile_idl("""
            module T {
              struct P { long a; sequence<double> xs; };
            };
        """)
        value = {"a": 1, "xs": [1.5, 2.5]}
        assert decode_one(mod.T.P, encode_one(mod.T.P, value)) == value

    def test_interface_as_parameter_type(self):
        mod = compile_idl("""
            module F {
              interface Worker {};
              interface Pool { Worker grab(in Worker hint); };
            };
        """)
        grab = mod.F.Pool.operations["grab"]
        assert grab.result.kind is TCKind.OBJREF
        assert grab.result.repo_id == mod.F.Worker.repo_id

    def test_cross_module_scoped_names(self):
        mod = compile_idl("""
            module A { struct S { long x; }; };
            module B { interface I { A::S get(); }; };
        """)
        assert mod.B.I.operations["get"].result == mod.A.S

    def test_reopened_module(self):
        mod = compile_idl("""
            module M { struct A { long x; }; };
            module M { struct B { A inner; }; };
        """)
        assert mod.M.B.members[0][1] == mod.M.A

    def test_interface_inheritance_compiled(self):
        mod = compile_idl("""
            interface Base { void b(); };
            interface Derived : Base { void d(); };
        """)
        assert mod.Derived.find_operation("b") is not None
        assert mod.Derived.bases == (mod.Base,)

    def test_interface_scoped_types_exposed(self):
        mod = compile_idl("""
            interface I {
              struct Inner { long x; };
              Inner get();
            };
        """)
        assert mod.I_Inner.kind is TCKind.STRUCT
        assert mod.I.operations["get"].result == mod.I_Inner

    @pytest.mark.parametrize("source, code", [
        ("struct S { Missing m; };", "IDL001"),
        ("struct S { long x; }; struct S { long y; };", "IDL002"),
        ("exception E { string s; }; struct S { E e; };", "IDL014"),
        ("struct S { long x; }; interface I : S {};", "IDL013"),
        # accepted by the compiler before it ran the checker first
        ("union U switch (string) { case 1: long a; };", "IDL007"),
        ("union U switch (boolean) { case TRUE: long a; "
         "case 3: short b; };", "IDL008"),
        ("union U switch (long) { case 1: long a; case 1: short b; };",
         "IDL009"),
        ("struct Foo { long x; }; struct foo { long y; };", "IDL003"),
        ("interface I { void f(in long a, in short a); };", "IDL002"),
        ("interface I { void f(); attribute long f; };", "IDL002"),
        ("enum Color { RED, GREEN }; struct RED { long x; };", "IDL002"),
        # raised as ConfigurationError / BAD_PARAM before
        ("interface I { oneway long f(); };", "IDL004"),
        ("interface I { void f(); void f(); };", "IDL002"),
        ("struct S { long x; short x; };", "IDL002"),
        # raised as ConfigurationError by InterfaceDef.add_operation
        ("interface I { attribute long x; long _get_x(); };", "IDL002"),
        ("interface I { void _set_x(in long v); attribute long x; };",
         "IDL002"),
        # identifiers spelled like a keyword but for case
        ("interface Interface { void f(); };", "IDL003"),
        ("struct Module { long x; };", "IDL003"),
        ("struct S { long Struct; };", "IDL003"),
        ("union U switch (long) { case 1: long Default; };", "IDL003"),
        ("interface I { void f(in long Out); };", "IDL003"),
        ("enum E { True, FALSE_ };", "IDL003"),
        ("module object { struct S { long x; }; };", "IDL003"),
    ], ids=[
        "undefined-name", "duplicate-declaration", "exception-as-type",
        "non-interface-base", "string-discriminator", "ill-typed-label",
        "duplicate-label", "case-twin", "duplicate-parameter",
        "attribute-named-like-operation", "struct-named-like-enum-label",
        "oneway-result", "duplicate-operation", "duplicate-member",
        "operation-named-like-getter", "operation-named-like-setter",
        "interface-named-Interface", "struct-named-Module",
        "member-named-Struct", "union-arm-named-Default",
        "parameter-named-Out", "enum-label-named-True",
        "module-named-object",
    ])
    def test_rejected_with_the_checkers_findings(self, source, code):
        diag = Diagnostics()
        check_specification(parse(source), diag)
        with pytest.raises(IdlSemanticError) as err:
            compile_idl(source)
        assert {f.code for f in err.value.findings} == diag.codes() == {code}

    def test_keyword_lookalikes_that_do_not_collide_compile(self):
        # a leading ``_`` never collides; a keyword inside a longer
        # identifier is no keyword
        source = ("interface _Interface { void f(in long _Out); };"
                  "struct Structure { long interfaces; long _Struct; };")
        diag = Diagnostics()
        check_specification(parse(source), diag)
        assert len(diag) == 0
        compile_idl(source)

    def test_sequence_self_containment_refused_by_the_compiler(self):
        # legal IDL, so the checker is clean; the refusal is the
        # compiler's own: a TypeCode here has no indirection
        source = "struct Node { long value; sequence<Node> kids; };"
        diag = Diagnostics()
        check_specification(parse(source), diag)
        assert len(diag) == 0
        with pytest.raises(IdlSemanticError, match="sequence<>") as err:
            compile_idl(source)
        assert err.value.findings == []

    def test_union_compiles_and_marshals(self):
        mod = compile_idl("""
            enum Kind { ints, text };
            union V switch (Kind) {
              case ints: long i;
              default: string s;
            };
        """)
        v = ("ints", 5)
        assert decode_one(mod.V, encode_one(mod.V, v)) == v
        v2 = ("text", "words")
        assert decode_one(mod.V, encode_one(mod.V, v2)) == v2

    def test_recompile_is_safe(self):
        src = "module R { exception E { string s; }; interface I { void f() raises (E); }; };"
        m1 = compile_idl(src)
        m2 = compile_idl(src)
        assert m2.R.I.repo_id == m1.R.I.repo_id

    def test_compiled_exception_raising(self):
        mod = compile_idl("exception Bang { string why; long code; };")
        exc = mod.Bang("because", 7)
        assert exc.why == "because"
        assert exc.code == 7
        assert exc.FIELDS == ("why", "code")

"""Layer 1: IDL semantic checks and the subtype oracle."""

import pytest

from repro.idl import parse
from repro.idl.check import InterfaceGraph, check_specification
from repro.tools.lint import main as lint_main
from repro.util.diagnostics import Diagnostics

PREFIX = '#pragma prefix "corbalc"\n'


def check(source: str):
    diag = Diagnostics()
    checked = check_specification(parse(source), diag, source="t.idl")
    return diag, checked


def codes(diag) -> set[str]:
    return diag.codes()


class TestCleanSpecs:
    def test_counter_demo_is_clean(self):
        diag, _ = check(PREFIX + """
        module Demo {
          interface Counter { long increment(in long by); long read(); };
        };
        """)
        assert len(diag) == 0

    def test_sequence_recursion_is_legal(self):
        diag, _ = check("""
        struct Tree { long value; sequence<Tree> children; };
        """)
        assert len(diag) == 0

    def test_forward_use_after_declaration_order(self):
        diag, _ = check("""
        struct A { long x; };
        struct B { A a; };
        """)
        assert len(diag) == 0


class TestNameChecks:
    def test_undefined_name(self):
        diag, _ = check("typedef Missing T;")
        assert codes(diag) == {"IDL001"}

    def test_use_before_declaration_is_undefined(self):
        diag, _ = check("""
        struct B { A a; };
        struct A { long x; };
        """)
        assert codes(diag) == {"IDL001"}

    def test_duplicate_declaration(self):
        diag, _ = check("""
        struct S { long x; };
        struct S { long y; };
        """)
        assert codes(diag) == {"IDL002"}

    def test_duplicate_member(self):
        diag, _ = check("struct S { long x; short x; };")
        assert codes(diag) == {"IDL002"}

    def test_case_insensitive_collision(self):
        diag, _ = check("""
        interface Counter { void a(); };
        interface counter { void b(); };
        """)
        assert codes(diag) == {"IDL003"}

    def test_scoped_resolution_through_modules(self):
        diag, _ = check("""
        module M { struct Inner { long x; }; };
        struct Outer { M::Inner i; };
        """)
        assert len(diag) == 0

    @pytest.mark.parametrize("source", [
        "enum Color { RED }; struct RED { long x; };",
        "typedef long T; exception T { string why; };",
        "const long C = 1; union C switch (long) { case 1: long a; };",
        "interface I {}; struct I { long x; };",
        "module M { struct A { long x; }; }; exception M { string why; };",
    ], ids=["enum-label", "typedef", "const", "interface", "module"])
    def test_aggregate_reusing_a_name_is_a_duplicate(self, source):
        # regression: the struct/exception/union was checked as the
        # first declaration of its name, and the recursion check raised
        diag, _ = check(source)
        assert codes(diag) == {"IDL002"}

    def test_reused_name_through_the_lint_cli(self, tmp_path, capsys):
        bad = tmp_path / "bad.idl"
        bad.write_text("enum Color { RED };\nstruct RED { long x; };\n")
        assert lint_main([str(bad)]) == 2  # was a traceback and exit 1
        assert "IDL002" in capsys.readouterr().out

    def test_wrong_role_exception_as_member_type(self):
        diag, _ = check("""
        exception Bad { string why; };
        struct S { Bad b; };
        """)
        assert codes(diag) == {"IDL014"}


class TestOnewayLegality:
    def test_nonvoid_result(self):
        diag, _ = check("interface I { oneway long f(); };")
        assert codes(diag) == {"IDL004"}

    def test_out_param(self):
        diag, _ = check("interface I { oneway void f(out long x); };")
        assert codes(diag) == {"IDL005"}

    def test_raises(self):
        diag, _ = check("""
        exception E { string why; };
        interface I { oneway void f() raises (E); };
        """)
        assert codes(diag) == {"IDL006"}

    def test_legal_oneway_is_clean(self):
        diag, _ = check("interface I { oneway void f(in long x); };")
        assert len(diag) == 0


class TestUnions:
    def test_bad_discriminator(self):
        diag, _ = check("union U switch (float) { case 1: long a; };")
        assert "IDL007" in codes(diag)

    def test_struct_discriminator(self):
        diag, _ = check("""
        struct S { long x; };
        union U switch (S) { case 1: long a; };
        """)
        assert "IDL007" in codes(diag)

    def test_enum_discriminator_with_good_labels(self):
        diag, _ = check("""
        enum Color { red, green };
        union U switch (Color) { case red: long a; default: short b; };
        """)
        assert len(diag) == 0

    def test_enum_discriminator_with_unknown_label(self):
        diag, _ = check("""
        enum Color { red, green };
        union U switch (Color) { case blue: long a; };
        """)
        assert codes(diag) == {"IDL008"}

    def test_int_label_on_bool_union(self):
        diag, _ = check(
            "union U switch (boolean) { case TRUE: long a; "
            "case 3: short b; };")
        assert codes(diag) == {"IDL008"}

    def test_duplicate_labels(self):
        diag, _ = check(
            "union U switch (long) { case 1: long a; case 1: short b; };")
        assert codes(diag) == {"IDL009"}

    def test_multiple_defaults(self):
        diag, _ = check(
            "union U switch (long) { default: long a; default: short b; };")
        assert codes(diag) == {"IDL010"}

    def test_typedefed_discriminator_resolves(self):
        diag, _ = check("""
        typedef long Tag;
        union U switch (Tag) { case 1: long a; };
        """)
        assert len(diag) == 0


class TestRecursion:
    def test_direct_recursion(self):
        diag, _ = check("struct Node { Node next; };")
        assert codes(diag) == {"IDL011"}

    def test_mutual_recursion(self):
        # the forward reference is itself IDL001 under declaration-order
        # rules, but the containment cycle is still diagnosed
        diag, _ = check("""
        struct A { B b; };
        struct B { A a; };
        """)
        assert {"IDL001", "IDL011"} <= codes(diag)

    def test_recursion_through_typedef_and_array(self):
        diag, _ = check("""
        struct Cell { long v; };
        struct Grid { Cell cells[4]; };
        """)
        assert len(diag) == 0

    def test_self_array_recursion(self):
        diag, _ = check("struct S { S next[2]; };")
        assert codes(diag) == {"IDL011"}

    def test_a_later_shadowing_declaration_is_not_a_cycle(self):
        # B's member names ::A where it is written; M::A comes later
        diag, _ = check("""
        struct A { long x; };
        module M { struct B { A a; }; struct A { B b; }; };
        """)
        assert len(diag) == 0


class TestInterfaceGraph:
    def test_inheritance_and_subtype_oracle(self):
        _, checked = check(PREFIX + """
        module Demo {
          interface A { void a(); };
          interface B : A { void b(); };
          interface C : B { void c(); };
          interface Other { void o(); };
        };
        """)
        g = checked.graph
        a = "IDL:corbalc/Demo/A:1.0"
        c = "IDL:corbalc/Demo/C:1.0"
        other = "IDL:corbalc/Demo/Other:1.0"
        assert g.is_subtype(c, a)
        assert g.is_subtype(a, a)
        assert not g.is_subtype(a, c)
        assert not g.is_subtype(other, a)

    def test_base_not_interface(self):
        diag, _ = check("""
        struct S { long x; };
        interface I : S { void f(); };
        """)
        assert codes(diag) == {"IDL013"}

    def test_undefined_base(self):
        diag, _ = check("interface I : Ghost { void f(); };")
        assert codes(diag) == {"IDL001"}

    def test_cycle_detection_in_seeded_graph(self):
        g = InterfaceGraph()
        g.add_interface("IDL:a:1.0", "a", ["IDL:b:1.0"])
        g.add_interface("IDL:b:1.0", "b", ["IDL:a:1.0"])
        assert g.cycles()
        # queries stay terminating on a cyclic graph
        assert g.is_subtype("IDL:a:1.0", "IDL:b:1.0")

    def test_merge_and_from_ifr(self):
        from repro.orb.dii import InterfaceRepository
        from repro.orb.core import InterfaceDef
        ifr = InterfaceRepository()
        base = InterfaceDef("IDL:x/Base:1.0", "Base")
        ifr.register(base)
        ifr.register(InterfaceDef("IDL:x/Sub:1.0", "Sub", bases=(base,)))
        g = InterfaceGraph.from_ifr(ifr)
        assert g.is_subtype("IDL:x/Sub:1.0", "IDL:x/Base:1.0")

    def test_findings_carry_source_and_line(self):
        diag, _ = check("typedef Missing T;")
        finding = diag.findings[0]
        assert finding.location.startswith("t.idl:")

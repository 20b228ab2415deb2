"""Property-based tests: random IDL ASTs survive unparse -> parse, and
the compiler and the IDL checker give one verdict on them."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.idl import compile_ast, parse
from repro.idl import idlast as ast
from repro.idl.check import check_specification
from repro.idl.codegen import IdlSemanticError
from repro.orb.dii import InterfaceRepository
from repro.util.diagnostics import Diagnostics
from tests.oracles.unparse import unparse

#: keywords can't be identifiers
_KEYWORDS = {
    "module", "interface", "struct", "enum", "union", "switch",
    "case", "default", "typedef", "exception", "const", "attribute",
    "readonly", "oneway", "in", "out", "inout", "raises", "sequence",
    "string", "void", "short", "long", "unsigned", "float", "double",
    "boolean", "char", "octet", "any", "Object", "TRUE", "FALSE",
}

#: ... nor be spelled like one but for case (IDL003)
_KEYWORDS_CI = {kw.lower() for kw in _KEYWORDS}

_idents = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s.lower() not in _KEYWORDS_CI)

_primitive_names = st.sampled_from([
    "short", "long", "unsigned short", "unsigned long", "long long",
    "unsigned long long", "float", "double", "boolean", "char", "octet",
    "string", "any",
])


@st.composite
def _fresh(draw, used):
    """A name not yet declared in the scope *used* tracks, now claimed.
    IDL names collide case-insensitively, so *used* holds them
    lowercased."""
    name = draw(_idents.filter(lambda n: n.lower() not in used))
    used.add(name.lower())
    return name


@st.composite
def _types(draw, depth=1):
    if depth == 0 or draw(st.integers(0, 2)) > 0:
        return ast.PrimitiveType(draw(_primitive_names))
    return ast.SequenceType(element=draw(_types(depth - 1)),
                            bound=draw(st.sampled_from([0, 0, 8])))


@st.composite
def _members(draw, names):
    return ast.Member(type=draw(_types()), name=draw(names))


@st.composite
def _structs(draw, used_names):
    name = draw(_fresh(used_names))
    member_names = draw(st.lists(_idents, min_size=1, max_size=4,
                                 unique=True))
    members = [ast.Member(type=draw(_types()), name=m)
               for m in member_names]
    return ast.StructDecl(name=name, members=members)


@st.composite
def _enums(draw, used_names):
    name = draw(_fresh(used_names))
    # the labels are declarations of the enclosing scope too
    labels = [draw(_fresh(used_names))
              for _ in range(draw(st.integers(1, 4)))]
    return ast.EnumDecl(name=name, labels=labels)


@st.composite
def _exceptions(draw, used_names):
    name = draw(_fresh(used_names))
    member_names = draw(st.lists(_idents, min_size=1, max_size=3,
                                 unique=True))
    members = [ast.Member(type=draw(_types()), name=m)
               for m in member_names]
    return ast.ExceptionDecl(name=name, members=members)


@st.composite
def _typedefs(draw, used_names):
    name = draw(_fresh(used_names))
    base = draw(_types())
    if draw(st.booleans()):
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                   max_size=2)))
        base = ast.ArrayOf(element=base, dims=dims)
    return ast.TypedefDecl(name=name, type=base)


@st.composite
def _consts(draw, used_names):
    name = draw(_fresh(used_names))
    ctype, value = draw(st.one_of(
        st.tuples(st.just(ast.PrimitiveType("long")),
                  st.integers(0, 10_000)),
        st.tuples(st.just(ast.PrimitiveType("boolean")), st.booleans()),
        st.tuples(st.just(ast.PrimitiveType("string")),
                  st.from_regex(r"[A-Za-z0-9 ]{0,12}", fullmatch=True)),
    ))
    return ast.ConstDecl(name=name, type=ctype, value=value)


@st.composite
def _unions(draw, used_names):
    """Unions over every legal discriminator family, including
    negative integer labels and an optional default arm."""
    name = draw(_fresh(used_names))
    family = draw(st.sampled_from(["int", "bool", "char"]))
    if family == "int":
        disc = ast.PrimitiveType(draw(st.sampled_from(["long", "short"])))
        labels = draw(st.lists(st.integers(-8, 8), min_size=1,
                               max_size=4, unique=True))
    elif family == "bool":
        disc = ast.PrimitiveType("boolean")
        labels = draw(st.lists(st.booleans(), min_size=1, max_size=2,
                               unique=True))
    else:
        disc = ast.PrimitiveType("char")
        labels = draw(st.lists(st.sampled_from(list("+-@#%")),
                               min_size=1, max_size=3, unique=True))
    arm_names = draw(st.lists(_idents, min_size=len(labels),
                              max_size=len(labels), unique=True))
    arms = [ast.UnionArm(labels=[label], type=draw(_types()), name=an)
            for label, an in zip(labels, arm_names)]
    if draw(st.booleans()):
        default_name = draw(_idents.filter(
            lambda n: n not in set(arm_names)))
        arms.append(ast.UnionArm(labels=[None], type=draw(_types()),
                                 name=default_name))
    return ast.UnionDecl(name=name, discriminator=disc, arms=arms)


@st.composite
def _interfaces(draw, used_names, base_pool=(), exception_pool=()):
    name = draw(_fresh(used_names))
    bases = [ast.NamedType((b,)) for b in draw(st.lists(
        st.sampled_from(sorted(base_pool)), max_size=2, unique=True))
    ] if base_pool else []
    ops = []
    members: set[str] = set()  # the interface's operations and attributes
    op_names = [draw(_fresh(members))
                for _ in range(draw(st.integers(0, 3)))]
    for op_name in op_names:
        n_params = draw(st.integers(0, 3))
        param_names = draw(st.lists(_idents, min_size=n_params,
                                    max_size=n_params, unique=True))
        params = [
            ast.ParamDecl(mode=draw(st.sampled_from(["in", "out",
                                                     "inout"])),
                          type=draw(_types()), name=p)
            for p in param_names
        ]
        raises = [ast.NamedType((e,)) for e in draw(st.lists(
            st.sampled_from(sorted(exception_pool)), max_size=2,
            unique=True))] if exception_pool else []
        oneway = (draw(st.booleans()) and not raises
                  and all(p.mode == "in" for p in params))
        result = None if oneway else draw(
            st.one_of(st.none(), _types()))
        ops.append(ast.OperationDecl(name=op_name, result=result,
                                     params=params, raises=raises,
                                     oneway=oneway))
    attr_names = [draw(_fresh(members))
                  for _ in range(draw(st.integers(0, 2)))]
    attrs = [ast.AttributeDecl(name=a, type=draw(_types()),
                               readonly=draw(st.booleans()))
             for a in attr_names]
    return ast.InterfaceDecl(name=name, bases=bases, body=ops + attrs)


@st.composite
def _modules(draw, used_names):
    name = draw(_fresh(used_names))
    inner_used: set[str] = set()
    body = draw(st.lists(
        st.one_of(_structs(inner_used), _enums(inner_used),
                  _unions(inner_used), _typedefs(inner_used)),
        min_size=1, max_size=3))
    return ast.ModuleDecl(name=name, body=body)


@st.composite
def _specs(draw):
    used: set[str] = set()
    definitions = list(draw(st.lists(
        st.one_of(_structs(used), _enums(used), _unions(used),
                  _typedefs(used), _consts(used), _exceptions(used)),
        min_size=0, max_size=4)))
    exception_pool = [d.name for d in definitions
                      if isinstance(d, ast.ExceptionDecl)]
    iface_pool: list[str] = []
    for _ in range(draw(st.integers(0, 3))):
        iface = draw(_interfaces(used, base_pool=iface_pool,
                                 exception_pool=exception_pool))
        iface_pool.append(iface.name)
        definitions.append(iface)
    if draw(st.booleans()):
        definitions.append(draw(_modules(used)))
    if not definitions:
        definitions.append(draw(_structs(used)))
    prefix = draw(st.sampled_from(["", "omg.org", "acme"]))
    return ast.Specification(definitions=definitions, prefix=prefix)


@given(_specs())
@settings(max_examples=150, deadline=None)
def test_unparse_parse_roundtrip(spec):
    text = unparse(spec)
    reparsed = parse(text)
    assert reparsed.prefix == spec.prefix
    assert reparsed.definitions == spec.definitions


@given(_specs())
@settings(max_examples=60, deadline=None)
def test_unparsed_idl_compiles(spec):
    """Whatever the generator produces must also survive codegen."""
    module = compile_ast(parse(unparse(spec)),
                         ifr=InterfaceRepository())
    for node in spec.definitions:
        assert node.name in module


def _declared(spec: ast.Specification) -> set[str]:
    """The global scope's names, lowercased, enum labels included."""
    names = {d.name.lower() for d in spec.definitions}
    for d in spec.definitions:
        if isinstance(d, ast.EnumDecl):
            names.update(label.lower() for label in d.labels)
    return names


_LONG = ast.PrimitiveType("long")


@st.composite
def _defective_specs(draw):
    """A legal spec plus one global declaration the checker must reject
    (or, for the last defect, the compiler must refuse on its own)."""
    spec = draw(_specs())
    used = _declared(spec)
    taken = sorted(d.name for d in spec.definitions)
    name = draw(_fresh(used))
    defect = draw(st.sampled_from([
        "duplicate", "case-twin", "undefined", "string-discriminator",
        "ill-typed-label", "duplicate-label", "two-defaults",
        "oneway-out", "duplicate-parameter", "attribute-like-operation",
        "self-containing",
    ]))
    member = [ast.Member(type=_LONG, name="x")]
    if defect == "duplicate":
        decl = ast.StructDecl(name=draw(st.sampled_from(taken)),
                              members=member)
    elif defect == "case-twin":
        twin = draw(st.sampled_from(taken)).swapcase()
        assume(twin not in _KEYWORDS)
        decl = ast.StructDecl(name=twin, members=member)
    elif defect == "undefined":
        decl = ast.StructDecl(name=name, members=[
            ast.Member(type=ast.NamedType((draw(_fresh(used)),)),
                       name="x")])
    elif defect in ("string-discriminator", "ill-typed-label",
                    "duplicate-label", "two-defaults"):
        disc, labels = {
            "string-discriminator": ("string", [1]),
            "ill-typed-label": ("boolean", [3]),
            "duplicate-label": ("long", [1, 1]),
            "two-defaults": ("long", [None, None]),
        }[defect]
        decl = ast.UnionDecl(
            name=name, discriminator=ast.PrimitiveType(disc),
            arms=[ast.UnionArm(labels=[label], type=_LONG, name=f"a{i}")
                  for i, label in enumerate(labels)])
    elif defect == "self-containing":
        decl = ast.StructDecl(name=name, members=[ast.Member(
            type=ast.SequenceType(element=ast.NamedType((name,))),
            name="kids")])
    else:
        params = [ast.ParamDecl(mode="in", type=_LONG, name="a")]
        body = [ast.OperationDecl(name="f", result=None, params=params)]
        if defect == "oneway-out":
            body = [ast.OperationDecl(
                name="f", result=None, oneway=True,
                params=[ast.ParamDecl(mode="out", type=_LONG, name="a")])]
        elif defect == "duplicate-parameter":
            body[0].params.append(
                ast.ParamDecl(mode="in", type=_LONG, name="a"))
        else:
            body.append(ast.AttributeDecl(name="f", type=_LONG))
        decl = ast.InterfaceDecl(name=name, bases=[], body=body)
    spec.definitions.append(decl)
    return spec


@given(st.one_of(_specs(), _defective_specs()))
@settings(max_examples=150, deadline=None)
def test_compiler_and_checker_give_one_verdict(spec):
    """``compile_ast`` refuses a spec exactly when the checker reports
    an error, with the checker's findings; its one refusal of its own is
    a type containing itself through ``sequence<>``, which is legal IDL
    but has no TypeCode here."""
    spec = parse(unparse(spec))
    diag = Diagnostics()
    check_specification(spec, diag)
    try:
        compile_ast(spec, ifr=InterfaceRepository())
    except IdlSemanticError as err:
        if err.findings:
            assert err.findings == diag.errors
        else:
            assert "through sequence<>" in str(err)
            assert not diag.has_errors()
    else:
        assert not diag.has_errors()


def test_negative_case_labels_roundtrip():
    """Regression: unparse renders ``case -1:`` which the parser used
    to reject (it only accepted bare integer tokens)."""
    spec = ast.Specification(definitions=[
        ast.UnionDecl(
            name="Signed",
            discriminator=ast.PrimitiveType("long"),
            arms=[
                ast.UnionArm(labels=[-1], type=ast.PrimitiveType("long"),
                             name="neg"),
                ast.UnionArm(labels=[0, 1], type=ast.PrimitiveType("short"),
                             name="small"),
            ])])
    again = parse(unparse(spec))
    assert again.definitions == spec.definitions
    assert again.definitions[0].arms[0].labels == [-1]


def test_unparse_known_sample_matches_parse():
    source = """#pragma prefix "corbalc"
module Demo {
  enum Color { red, green };
  struct P { double x; sequence<long> xs; };
  union V switch (Color) {
    case red:
      long i;
    default:
      string s;
  };
  interface I {
    readonly attribute string name;
    P get(in Color c, out long n) raises (Bad);
    oneway void poke(in string tag);
  };
  exception Bad { string why; };
  typedef long Grid[2][3];
  const double PI = 3.14;
};
"""
    spec = parse(source)
    again = parse(unparse(spec))
    assert again.definitions == spec.definitions
    assert again.prefix == spec.prefix

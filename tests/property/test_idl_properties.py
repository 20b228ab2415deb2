"""Property-based tests: random IDL ASTs survive unparse -> parse."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.idl import compile_ast, parse
from repro.idl import idlast as ast
from tests.oracles.unparse import unparse

_idents = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {
        # keywords can't be identifiers
        "module", "interface", "struct", "enum", "union", "switch",
        "case", "default", "typedef", "exception", "const", "attribute",
        "readonly", "oneway", "in", "out", "inout", "raises", "sequence",
        "string", "void", "short", "long", "unsigned", "float", "double",
        "boolean", "char", "octet", "any", "Object", "TRUE", "FALSE",
    }
)

_primitive_names = st.sampled_from([
    "short", "long", "unsigned short", "unsigned long", "long long",
    "unsigned long long", "float", "double", "boolean", "char", "octet",
    "string", "any",
])


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
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
    member_names = draw(st.lists(_idents, min_size=1, max_size=4,
                                 unique=True))
    members = [ast.Member(type=draw(_types()), name=m)
               for m in member_names]
    return ast.StructDecl(name=name, members=members)


@st.composite
def _enums(draw, used_names):
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
    labels = draw(st.lists(_idents, min_size=1, max_size=4, unique=True))
    return ast.EnumDecl(name=name, labels=labels)


@st.composite
def _exceptions(draw, used_names):
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
    member_names = draw(st.lists(_idents, min_size=1, max_size=3,
                                 unique=True))
    members = [ast.Member(type=draw(_types()), name=m)
               for m in member_names]
    return ast.ExceptionDecl(name=name, members=members)


@st.composite
def _typedefs(draw, used_names):
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
    base = draw(_types())
    if draw(st.booleans()):
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1,
                                   max_size=2)))
        base = ast.ArrayOf(element=base, dims=dims)
    return ast.TypedefDecl(name=name, type=base)


@st.composite
def _consts(draw, used_names):
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
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
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
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
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
    bases = [ast.NamedType((b,)) for b in draw(st.lists(
        st.sampled_from(sorted(base_pool)), max_size=2, unique=True))
    ] if base_pool else []
    ops = []
    op_names = draw(st.lists(_idents, min_size=0, max_size=3,
                             unique=True))
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
    attr_names = draw(st.lists(
        _idents.filter(lambda n: n not in set(op_names)),
        min_size=0, max_size=2, unique=True))
    attrs = [ast.AttributeDecl(name=a, type=draw(_types()),
                               readonly=draw(st.booleans()))
             for a in attr_names]
    return ast.InterfaceDecl(name=name, bases=bases, body=ops + attrs)


@st.composite
def _modules(draw, used_names):
    name = draw(_idents.filter(lambda n: n not in used_names))
    used_names.add(name)
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
    from repro.orb.dii import InterfaceRepository
    module = compile_ast(parse(unparse(spec)),
                         ifr=InterfaceRepository())
    for node in spec.definitions:
        assert node.name in module


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

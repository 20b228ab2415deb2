"""SIM001- determinism rules.

Replay-from-a-seed only holds if every random draw and every notion of
"now" flows from the simulation: named :class:`repro.sim.rng`
streams and ``env.now``.  These passes ban the escape hatches:

- **SIM001** — importing the stdlib ``random`` module (process-global
  state; seeded or not, it desynchronizes unrelated subsystems);
- **SIM002** — wall-clock / host-entropy reads (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, ``secrets``):
  values differ run to run, so anything derived from them diverges;
- **SIM003** — constructing numpy generators (``default_rng``,
  ``RandomState``, ``SeedSequence``) or drawing from the global numpy
  RNG anywhere but :mod:`repro.sim.rng`: every generator must trace to
  a seeded ``RngRegistry.stream`` / ``derived_stream`` so streams stay
  independent and replayable;
- **SIM004** — iterating an unordered ``set`` where the iteration
  order is observable (``for`` loops, comprehensions, ``list()``/
  ``join()`` materialization): order depends on ``PYTHONHASHSEED``,
  the classic source of cross-process replay divergence.  Reduce with
  ``sorted()`` (or an order-insensitive fold) instead.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.simlint.engine import rule

#: the one module allowed to construct numpy generators: the
#: named-stream registry itself.
RNG_MODULES = ("sim/rng.py",)

_DOCS = {
    "SIM001": "stdlib random import (use sim/rng.py named streams)",
    "SIM002": "wall-clock or host-entropy read (use env.now / seeds)",
    "SIM003": "ad-hoc RNG construction outside sim/rng.py",
    "SIM004": "unordered set iteration with observable order",
}

#: run-to-run varying stdlib calls (fully-qualified after alias
#: resolution).
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
}

#: numpy generator constructors — legal only inside sim/rng.py.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator", "numpy.random.SeedSequence",
    "numpy.random.PCG64", "numpy.random.Philox", "numpy.random.MT19937",
    "random.Random", "random.SystemRandom",
}

#: module-level draws against numpy's hidden global generator.
_GLOBAL_DRAWS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "bytes", "seed",
}

#: builtins whose result is insensitive to argument order — a set
#: flowing into these is fine.
_ORDER_INSENSITIVE_CALLS = {
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset", "bool",
}

#: builtins that materialize their argument's iteration order.
_ORDER_MATERIALIZING_CALLS = {"list", "tuple", "enumerate", "iter",
                              "next", "zip", "map", "filter"}


class _ImportMap:
    """name bound in the module -> fully qualified dotted origin."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c``
                    # binds ``c`` to ``a.b``.
                    origin = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.aliases[bound] = origin
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of *node*, if resolvable."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))


def _is_set_expr(node: ast.AST, set_names: set[str],
                 attr_sets: set[str] = frozenset()) -> bool:
    """Is *node* statically a ``set``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Attribute) and node.attr in attr_sets \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # set algebra stays a set when either side is known to be one
        return (_is_set_expr(node.left, set_names, attr_sets)
                and _is_set_expr(node.right, set_names, attr_sets))
    return False


def _local_set_names(func: ast.AST) -> set[str]:
    """Names assigned exactly set-typed values throughout *func*."""
    assigned: dict[str, bool] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            is_set = _is_set_expr(node.value, set())
            prior = assigned.get(target.id)
            assigned[target.id] = is_set if prior is None \
                else (prior and is_set)
    return {name for name, is_set in assigned.items() if is_set}


def _class_attr_sets(cls: ast.ClassDef) -> set[str]:
    """``self.x`` attributes only ever assigned set expressions."""
    assigned: dict[str, bool] = {}
    ann_sets = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign) and node.value is None \
                and isinstance(node.target, ast.Name):
            # class-body annotation like ``partitioned: set = ...``
            # handled below when it has a value; bare annotations with
            # a set type hint count as intent.
            ann = ast.unparse(node.annotation) if hasattr(
                ast, "unparse") else ""
            if ann.startswith(("set", "frozenset")):
                ann_sets.add(node.target.id)
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        elif isinstance(node, ast.AugAssign):
            # ``self.x |= ...`` keeps set-ness; ignore for inference
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                is_set = _is_set_expr(value, set())
                prior = assigned.get(target.attr)
                assigned[target.attr] = is_set if prior is None \
                    else (prior and is_set)
            elif isinstance(target, ast.Name) and \
                    _is_set_expr(value, set()):
                # dataclass-style ``field: set = field(...)`` is rare;
                # skip rather than guess.
                pass
    return {name for name, is_set in assigned.items()
            if is_set} | ann_sets


@rule(docs=_DOCS)
def check_determinism(source, config, sink) -> None:
    if source.matches(RNG_MODULES):
        return
    imports = _ImportMap(source.tree)

    # SIM001 — the import itself, so one finding per module.
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or \
                        alias.name.startswith("random."):
                    sink.error(
                        "SIM001", node,
                        "stdlib 'random' is process-global state; draw "
                        "from a named RngRegistry stream "
                        "(repro.sim.rng) instead")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and \
                    node.module.split(".")[0] == "random":
                sink.error(
                    "SIM001", node,
                    "stdlib 'random' is process-global state; draw "
                    "from a named RngRegistry stream (repro.sim.rng) "
                    "instead")

    # SIM002 / SIM003 — call sites.
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        fqn = imports.resolve(node.func)
        if fqn is None:
            continue
        if fqn in _WALL_CLOCK:
            sink.error(
                "SIM002", node,
                f"{fqn}() varies run to run; simulations must read "
                f"env.now and derive identity from seeds")
        elif fqn in _RNG_CONSTRUCTORS:
            sink.error(
                "SIM003", node,
                f"{fqn}() constructed outside repro.sim.rng; obtain "
                f"generators via RngRegistry.stream()/derived_stream() "
                f"so every draw traces to the root seed")
        elif fqn.startswith("numpy.random.") and \
                fqn.rsplit(".", 1)[1] in _GLOBAL_DRAWS:
            sink.error(
                "SIM003", node,
                f"{fqn}() draws from numpy's hidden global generator; "
                f"obtain generators via RngRegistry.stream()/"
                f"derived_stream()")

    # SIM004 — observable set iteration order.  Each function is its
    # own scope for local set-name tracking; methods additionally see
    # their class's set-typed ``self.`` attributes; nested functions
    # are visited in their own pass, not their parent's.
    _check_sets_in(source.tree, set(), sink)
    for cls in ast.walk(source.tree):
        if isinstance(cls, ast.ClassDef):
            attr_sets = _class_attr_sets(cls)
            for func in cls.body:
                if isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    _check_sets_in(func, attr_sets, sink)
    for func in ast.walk(source.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parents = getattr(func, "_simlint_visited", False)
            if not parents:
                _check_sets_in(func, set(), sink)


def _check_sets_in(scope: ast.AST, attr_sets: set[str], sink) -> None:
    if getattr(scope, "_simlint_visited", False):
        return
    scope._simlint_visited = True
    set_names = _local_set_names(scope) \
        if not isinstance(scope, ast.Module) else set()
    # comprehensions whose whole result feeds an order-insensitive
    # call (sorted, sum, set...) are fine regardless of source order.
    blessed: set[int] = set()
    for node in _walk_scope(scope):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            if name in _ORDER_INSENSITIVE_CALLS:
                for arg in node.args:
                    blessed.add(id(arg))
    for node in _walk_scope(scope):
        _check_set_iteration(node, set_names, attr_sets, blessed, sink)


def _walk_scope(scope: ast.AST):
    """Descendants of *scope*'s body, not entering nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _check_set_iteration(node: ast.AST, set_names: set[str],
                         attr_sets: set[str], blessed: set[int],
                         sink) -> None:
    def is_set(expr):
        return _is_set_expr(expr, set_names, attr_sets)

    if isinstance(node, ast.For) and is_set(node.iter):
        sink.warning(
            "SIM004", node.iter,
            "iterating a set exposes hash order "
            "(PYTHONHASHSEED-dependent); iterate sorted(...) or use an "
            "order-insensitive reduction")
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                           ast.DictComp)):
        if id(node) in blessed:
            return
        for comp in node.generators:
            if is_set(comp.iter):
                sink.warning(
                    "SIM004", comp.iter,
                    "comprehension over a set exposes hash order "
                    "(PYTHONHASHSEED-dependent); wrap the source in "
                    "sorted(...)")
    elif isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name in _ORDER_MATERIALIZING_CALLS or name == "join":
            for arg in node.args:
                if is_set(arg) and id(arg) not in blessed:
                    sink.warning(
                        "SIM004", arg,
                        f"{name}() materializes set hash order "
                        f"(PYTHONHASHSEED-dependent); sort first")

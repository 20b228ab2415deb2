"""SIM010- control-loop safety rules.

The PR-9 chaos harness found the archetype for this family: a corrupt
``get_state`` reply whose *decode* raised inside the supervisor's
checkpoint pass, escaping the ``while True`` loop and silently killing
self-healing for the rest of the run.  Loops that supervise the system
(supervisor ticks, shard-agent gossip rounds, soft-state reporters,
worker pools) must treat each iteration as a fault boundary:

- **SIM010** — bare ``except:`` swallows ``GeneratorExit`` and
  ``KeyboardInterrupt``; always name what you catch;
- **SIM011** — a broad ``except Exception`` inside a loop of a
  generator function must let kernel control exceptions through:
  either a preceding ``except Interrupt: raise`` clause or a re-raise
  in the handler body — otherwise a crash/stop interrupt is absorbed
  as if it were a handler error and the process never dies;
- **SIM012** — in a control loop, calls that decode foreign bytes
  (``loads_*``, ``decode*``, ``parse_*``, ``from_json`` ...) inside a
  perpetual loop must sit inside a ``try``: decode errors are *data*
  faults and must cost one iteration, not the loop;
- **SIM013** — a hand-started ``while True`` loop with yields in a
  designated control-loop module should handle
  :class:`~repro.sim.kernel.Interrupt` somewhere in the function, so
  ``stop()``/crash interrupts end it cleanly.

A *control loop* is the ``body`` of a
:class:`~repro.sim.hostloop.HostLoop` built in the same module (the
primitive handles its Interrupt), or any perpetual generator loop in
one of the designated modules whose loops are not host-bound.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.simlint.engine import rule

_DOCS = {
    "SIM010": "bare except (swallows GeneratorExit/KeyboardInterrupt)",
    "SIM011": "broad except in generator loop hides kernel interrupts",
    "SIM012": "unguarded decode call inside a control loop iteration",
    "SIM013": "perpetual control loop without Interrupt handling",
}

#: exception names that count as kernel/loop control.
_CONTROL_EXCEPTIONS = {"Interrupt", "StopSimulation", "GeneratorExit",
                       "BaseException"}
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _exc_names(handler: ast.ExceptHandler) -> set[str]:
    """Last-segment names of the exception types a handler catches."""
    node = handler.type
    if node is None:
        return set()
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    out = set()
    for item in nodes:
        if isinstance(item, ast.Attribute):
            out.add(item.attr)
        elif isinstance(item, ast.Name):
            out.add(item.id)
    return out


def _walk_scope(scope: ast.AST):
    """Descendants of *scope*, not entering nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in _walk_scope(func))


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise)
               for node in _walk_scope(handler))


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _host_loop_bodies(tree: ast.Module) -> set[str]:
    """Names of the functions handed to ``HostLoop(...)`` as *body*."""
    bodies = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) == "HostLoop":
            for arg in node.args[2:3] + [kw.value for kw in node.keywords
                                         if kw.arg == "body"]:
                bodies.add(getattr(arg, "attr", getattr(arg, "id", "")))
    return bodies


@rule(docs=_DOCS)
def check_loops(source, config, sink) -> None:
    # SIM010 — everywhere, any function.
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            sink.error(
                "SIM010", node,
                "bare 'except:' also swallows GeneratorExit and "
                "KeyboardInterrupt; name the exceptions (or catch "
                "Exception after re-raising Interrupt)")

    control_module = config.is_control_loop_module(source)
    host_loop_bodies = _host_loop_bodies(source.tree)
    decode_re = re.compile(config.decode_call_re)

    for func in ast.walk(source.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_generator(func):
            continue

        # A HostLoop body's Interrupt handler is the primitive's.
        host_bound = func.name in host_loop_bodies
        func_handles_interrupt = host_bound or any(
            isinstance(node, ast.ExceptHandler)
            and _exc_names(node) & _CONTROL_EXCEPTIONS
            for node in _walk_scope(func))

        for loop in _walk_scope(func):
            if not isinstance(loop, (ast.While, ast.For)):
                continue

            # SIM011 — broad handlers inside the loop must re-raise
            # control exceptions (or a prior clause must catch them).
            for sub in _walk_scope(loop):
                if not isinstance(sub, ast.Try):
                    continue
                control_caught = False
                for handler in sub.handlers:
                    names = _exc_names(handler)
                    if names & _CONTROL_EXCEPTIONS and \
                            "BaseException" not in names:
                        control_caught = True
                    if names & _BROAD_EXCEPTIONS:
                        if not control_caught and \
                                not _handler_reraises(handler):
                            sink.error(
                                "SIM011", handler,
                                "broad except inside a generator loop "
                                "absorbs kernel Interrupt/"
                                "StopSimulation; add 'except "
                                "Interrupt: raise' before it (or "
                                "re-raise in the handler)")

            # SIM012/SIM013 apply only to control loops.
            if not (control_module or host_bound):
                continue
            perpetual = isinstance(loop, ast.While)
            if not perpetual:
                continue
            has_yield = any(isinstance(node, (ast.Yield, ast.YieldFrom))
                            for node in _walk_scope(loop))

            unguarded = _unguarded_decode_calls(loop, decode_re)
            for call in unguarded:
                sink.error(
                    "SIM012", call,
                    f"'{_call_name(call)}' decodes foreign data inside "
                    f"a control loop with no enclosing try: a decode "
                    f"error would escape the iteration and kill the "
                    f"loop (the checkpoint-corruption bug shape)")

            if has_yield and not func_handles_interrupt:
                sink.warning(
                    "SIM013", loop,
                    f"perpetual loop in {func.name}() never handles "
                    f"Interrupt; stop()/crash interrupts will surface "
                    f"as unhandled errors instead of ending the loop")


def _unguarded_decode_calls(loop: ast.AST, decode_re) -> list[ast.Call]:
    """Decode-shaped calls under *loop* with no Try between them."""
    out: list[ast.Call] = []

    def visit(node: ast.AST, guarded: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            child_guarded = guarded
            if isinstance(node, ast.Try) and child in node.body:
                # only the try *body* is protected by its handlers;
                # code in handlers/finally/else runs unprotected.
                child_guarded = guarded or bool(node.handlers)
            if isinstance(child, ast.Call) and not child_guarded \
                    and decode_re.match(_call_name(child)):
                out.append(child)
            visit(child, child_guarded)

    visit(loop, False)
    return out

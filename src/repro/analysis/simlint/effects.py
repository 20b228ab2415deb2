"""SIM020- paired-effect rules.

A chaos campaign's cleanliness contract is that every fault it injects
is undone before quiescence checks run; a registry ring's contract is
that staged membership intent never leaks out of the function that
staged it.  Both are "effect A requires paired effect B" shapes a
static pass can hold the line on:

- **SIM020** — a fault installer (``act_*`` in an action module) must
  define a ``revert`` closure and hand it back with every successful
  return; an installer returning a fault without its undo leaves the
  world dirty for every later campaign in the process;
- **SIM021** — after ``stage_add``/``stage_remove`` on a ring, every
  path to the end of the function must pass ``rebalance()`` (or
  ``cancel_staged()``); a return with staged-but-unapplied membership
  leaves lookups answering from a ring that silently disagrees with
  the membership the caller thinks it installed.  Paths that *raise*
  are exempt — an exception visibly aborts the change.
"""

from __future__ import annotations

import ast

from repro.analysis.simlint.engine import rule

_DOCS = {
    "SIM020": "fault installer without a returned revert closure",
    "SIM021": "stage_add/stage_remove not rebalanced on every path",
}

#: function-name prefix marking a fault installer in an action module.
ACTION_PREFIX = "act_"

_STAGE_CALLS = {"stage_add", "stage_remove"}
_SETTLE_CALLS = {"rebalance", "cancel_staged"}


def _walk_scope(scope: ast.AST):
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _call_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
    return ""


def _returns_revert(node: ast.Return) -> bool:
    """Does the returned expression reference a name ``revert``?"""
    if node.value is None:
        return False
    for sub in ast.walk(node.value):
        if isinstance(sub, ast.Name) and sub.id == "revert":
            return True
    return False


def _is_none_return(node: ast.Return) -> bool:
    return node.value is None or (
        isinstance(node.value, ast.Constant) and node.value.value is None)


@rule(docs=_DOCS)
def check_paired_effects(source, config, sink) -> None:
    # SIM020 — only in designated action modules.
    if config.is_action_module(source):
        for func in source.tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            if not func.name.startswith(ACTION_PREFIX):
                continue
            has_revert = any(
                isinstance(node, ast.FunctionDef)
                and node.name == "revert"
                for node in ast.walk(func))
            applied_returns = [
                node for node in _walk_scope(func)
                if isinstance(node, ast.Return)
                and not _is_none_return(node)]
            if not has_revert and applied_returns:
                sink.error(
                    "SIM020", func,
                    f"fault installer {func.name}() applies a fault "
                    f"but defines no revert closure; campaigns cannot "
                    f"undo it before quiescence checks")
                continue
            for node in applied_returns:
                if not _returns_revert(node):
                    sink.error(
                        "SIM020", node,
                        f"{func.name}() returns an applied fault "
                        f"without its revert closure; include "
                        f"'revert' in the returned tuple")

    # SIM021 — anywhere: staged ring changes must settle in-function.
    for func in ast.walk(source.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if any(_call_name(node) in _STAGE_CALLS
               for node in _walk_scope(func)):
            for call in _pending_at_exit(func):
                sink.error(
                    "SIM021", call,
                    f"{_call_name(call)}() is staged but some path "
                    f"reaches the end of {func.name}() without "
                    f"rebalance()/cancel_staged(); lookups would keep "
                    f"answering from the stale ring")


def _pending_at_exit(func: ast.AST) -> list[ast.Call]:
    """Stage calls that can reach a (non-raising) function exit
    without a settle call on the way.

    A small path-insensitive-within-expressions, path-sensitive-across-
    statements walk: ``pending`` is the set of stage-call nodes not yet
    settled on the current path; branches fork it, loop bodies are
    analyzed once (a settle after the loop still clears staging done
    inside it).
    """
    escaped: list[ast.Call] = []
    seen_escaped: set[int] = set()

    def mark(pending: set[ast.Call]) -> None:
        for call in pending:
            if id(call) not in seen_escaped:
                seen_escaped.add(id(call))
                escaped.append(call)

    def expr_effects(node: ast.AST, pending: set) -> None:
        """Apply stage/settle calls appearing in one expression."""
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue
            name = _call_name(sub)
            if name in _SETTLE_CALLS:
                pending.clear()
            elif name in _STAGE_CALLS:
                pending.add(sub)

    def run(body: list, pending: set) -> tuple[set, bool]:
        """Analyze a statement list; returns (pending at fall-through,
        reachable) where reachable=False means every path returned or
        raised."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Return):
                expr_effects(stmt, pending)
                mark(pending)
                return set(), False
            if isinstance(stmt, (ast.Raise, ast.Continue, ast.Break)):
                # raising aborts the change visibly; break/continue
                # stay within the function, approximate as fall-through
                if isinstance(stmt, ast.Raise):
                    return set(), False
                continue
            if isinstance(stmt, ast.If):
                expr_effects(stmt.test, pending)
                p_then, r_then = run(stmt.body, set(pending))
                p_else, r_else = run(stmt.orelse, set(pending))
                if not r_then and not r_else:
                    return set(), False
                pending = (p_then if r_then else set()) | \
                    (p_else if r_else else set())
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                if isinstance(stmt, ast.For):
                    expr_effects(stmt.iter, pending)
                else:
                    expr_effects(stmt.test, pending)
                p_body, _ = run(stmt.body, set(pending))
                pending = pending | p_body
                p_else, r_else = run(stmt.orelse, set(pending))
                if r_else:
                    pending = p_else
                continue
            if isinstance(stmt, ast.Try):
                p_body, r_body = run(stmt.body, set(pending))
                merged = p_body if r_body else set()
                reachable = r_body
                for handler in stmt.handlers:
                    # handlers may run with any prefix of the body
                    # executed; start them from the pre-try state plus
                    # whatever the body staged.
                    p_h, r_h = run(handler.body, pending | p_body)
                    if r_h:
                        merged |= p_h
                        reachable = True
                p_final, r_final = run(stmt.finalbody, set(merged))
                if stmt.finalbody:
                    merged, reachable = p_final, r_final and reachable
                pending = merged
                if not reachable:
                    return set(), False
                continue
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    expr_effects(item.context_expr, pending)
                pending, reachable = run(stmt.body, pending)
                if not reachable:
                    return set(), False
                continue
            expr_effects(stmt, pending)
        return pending, True

    pending, reachable = run(list(func.body), set())
    if reachable:
        mark(pending)
    return escaped

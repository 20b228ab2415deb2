"""SIM030- metric/trace name hygiene.

Benchmarks, invariant monitors and dashboards read metrics *by name*;
a typo'd emit site doesn't fail — it silently splits a series in two
("supervisor.recoverys" fills while the monitor watches
``supervisor.recoveries`` forever at zero).  The cure is a single
declared-names registry, :mod:`repro.obs.names`; these passes pin
every emit site to it:

- **SIM030** — a metric name passed as a string literal (or an
  f-string with dynamic segments) to ``counter``/``histogram``/
  ``gauge``/``add_labelled``/... must be declared;
- **SIM031** — ditto span labels passed to ``span``/``start_span``.

F-strings are canonicalized with ``*`` standing for each dynamic
segment (``f"chaos.action.{kind}"`` → ``chaos.action.*``) and must
match a declared *pattern* verbatim.  References to named constants
(``names.SUPERVISOR_RECOVERIES``) are accepted by construction — a
single definition point cannot drift.
"""

from __future__ import annotations

import ast

from repro.analysis.simlint.engine import rule

_DOCS = {
    "SIM030": "metric name literal not declared in repro.obs.names",
    "SIM031": "span label literal not declared in repro.obs.names",
}


def canonical_name(node: ast.AST) -> str | None:
    """The name argument as a literal or ``*``-canonical pattern.

    Returns ``None`` for arguments that are not (f-)string literals —
    constant references and computed names are out of scope here.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                if parts and parts[-1] == "*":
                    continue      # collapse adjacent placeholders
                parts.append("*")
        name = "".join(parts)
        return None if name == "*" else name
    return None


@rule(docs=_DOCS)
def check_name_hygiene(source, config, sink) -> None:
    if source.matches(config.names_exempt_modules):
        return
    # Deferred so the analyzer can lint trees that don't ship an
    # obs.names (unit-test fixtures monkeypatch these).
    from repro.obs import names as declared

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Attribute) or not node.args:
            continue
        method = node.func.attr
        if method in config.metric_methods:
            name = canonical_name(node.args[0])
            if name is not None and not declared.metric_declared(name):
                sink.error(
                    "SIM030", node,
                    f"metric name {name!r} is not declared in "
                    f"repro.obs.names; declare it (or fix the typo) so "
                    f"readers and emitters cannot drift apart")
        elif method in config.span_methods:
            name = canonical_name(node.args[0])
            if name is not None and not declared.span_declared(name):
                sink.error(
                    "SIM031", node,
                    f"span label {name!r} is not declared in "
                    f"repro.obs.names; declare it (or fix the typo) so "
                    f"trace queries cannot drift from emit sites")

"""SIM040 observed liveness.

The paper has the network *infer* liveness: soft-state reports "also
serve as a keep-alive mechanism", and protocols must survive "spurious
node failures and node disconnections" (§2.4.3).  A control decision
that reads ``.alive`` off another host's simulator object consults
ground truth no real node has.  It never guesses wrong, so the paths
where a real node would — split brain, stale repair — never run.

- **SIM040** — ``.alive`` read on ``topology.host(…)`` (also
  ``network.topology.host(…)``) or on another object's ``.node`` /
  ``.node.host``.  A host reading its own liveness (``self.host``,
  ``self.node``, ``self.node.host``) is exempt, and so are
  :mod:`repro.sim`, which owns the truth, and :mod:`repro.chaos`, the
  omniscient observer whose panel compares the system against it.
"""

from __future__ import annotations

import ast

from repro.analysis.simlint.engine import rule

_DOCS = {
    "SIM040": "liveness read off another host's simulator object",
}

#: packages that may read the truth: the simulator and the chaos panel.
TRUTH_PACKAGES = ("sim/", "chaos/")


def _reads_truth(value: ast.AST) -> bool:
    """Whether ``value.alive`` is another host's liveness."""
    if isinstance(value, ast.Call):
        func, owner = value.func, getattr(value.func, "value", None)
        return (isinstance(func, ast.Attribute) and func.attr == "host"
                and (getattr(owner, "id", None) == "topology"
                     or getattr(owner, "attr", None) == "topology"))
    if isinstance(value, ast.Attribute) and value.attr == "host":
        value = value.value                         # x.node.host.alive
        if not (isinstance(value, ast.Attribute) and value.attr == "node"):
            return False
    return (isinstance(value, ast.Attribute) and value.attr == "node"
            and getattr(value.value, "id", None) != "self")


@rule(docs=_DOCS)
def check_liveness(source, config, sink) -> None:
    if source.matches(TRUTH_PACKAGES):
        return
    for node in ast.walk(source.tree):
        if (isinstance(node, ast.Attribute) and node.attr == "alive"
                and _reads_truth(node.value)):
            sink.error(
                "SIM040", node,
                "reads another host's liveness off the simulator; "
                "decide by what this node observes (a registry view, "
                "or the call's own failure)")

"""Every setting a caller could pass is passed by some caller.

An AST scan over ``src/repro``: each defaulted parameter of a public
callable, and each defaulted field of a ``*Config`` / ``*Policy`` /
``*Profile`` dataclass, must be passed -- by keyword or by position --
by some call in ``src/``, ``benchmarks/`` or ``examples/``.  A setting
nothing sets is a constant in disguise: make it one.  Entries of
``ALLOWED`` are exempt, each with a one-line reason, and each must be
passed by some call in ``tests/`` -- except the few in ``API_SHAPE``,
reached through names the scan cannot follow.

How callers are matched (by bare callee name, so generously):

- ``f(...)`` and ``obj.f(...)`` are calls of every public ``f``; a
  class's ``__init__`` parameters and dataclass fields are set by calls
  of the class name, ``super().__init__`` of its subclasses and
  ``Base.__init__(self, ...)``;
- ``*args`` sets every position and ``**kwargs`` every keyword;
- ``replace(obj, name=...)`` sets ``name`` of any config dataclass;
- parameters named with a leading underscore are internal (recursion
  state), properties and nested definitions are not settings.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples")
TEST_DIRS = ("tests",)
CONFIG_SUFFIXES = ("Config", "Policy", "Profile")

_TESTS = "set by tests only"

ALLOWED = {
    # -- CLI entry points and their in-process test seam
    "repro.tools.chaos.main:argv": "CLI entry point; tests pass argv",
    "repro.tools.lint.main:argv": "CLI entry point; tests pass argv",
    "repro.tools.obs_report.main:argv": "CLI entry point; tests pass argv",
    "repro.tools.simlint.main:argv": "CLI entry point; tests pass argv",
    "repro.tools.obs_report.run_selftest:out":
        "selftest output stream; tests capture it",
    # -- API shape: called through names the scan cannot follow
    "repro.analysis.simlint.engine.rule:func":
        "decorator: the bare @rule form passes the function",
    "repro.orb.exceptions.SystemException:reason":
        "CORBA exception field; set through the subclasses (BAD_PARAM...)",
    "repro.orb.exceptions.SystemException:minor":
        "CORBA exception field; set when a reply is decoded",
    "repro.orb.exceptions.SystemException:completed":
        "CORBA exception field; set when a reply is decoded",
    "repro.sim.kernel.Environment.timeout:value":
        "simpy-style event value; tests use it",
    "repro.orb.core.ORB.call:timeout": "mirrors ORB.invoke's; " + _TESTS,
    # -- the test rig's package
    "repro.testing.counter_package:version": "test rig; " + _TESTS,
    "repro.testing.counter_package:mobility": "test rig; " + _TESTS,
    "repro.testing.counter_package:replication": "test rig; " + _TESTS,
    "repro.testing.counter_package:payload_size": "test rig; " + _TESTS,
    # -- knobs the tests turn
    "repro.deployment.loadbalancer.LoadBalancer:threshold": _TESTS,
    "repro.deployment.loadbalancer.LoadBalancer:interval": _TESTS,
    "repro.deployment.supervisor.ApplicationSupervisor:checkpoint": _TESTS,
    "repro.orb.retry.call_with_retry:policy":
        "mirrors invoke_with_retry's; " + _TESTS,
    "repro.orb.retry.call_with_retry:breaker":
        "mirrors invoke_with_retry's; " + _TESTS,
    "repro.orb.retry.call_with_retry:budget":
        "mirrors invoke_with_retry's; " + _TESTS,
    "repro.packaging.signature.VendorKeyRegistry:secret": _TESTS,
    "repro.registry.cohesion.deploy_cohesion:seeds": _TESTS,
    "repro.registry.federation.orchestrator.FederationConfig:member_timeout":
        _TESTS,
    "repro.registry.federation.orchestrator.FederationConfig:placement":
        _TESTS,
    "repro.registry.groups.RegistryConfig:member_timeout": _TESTS,
    "repro.sim.faults.WireFaultProfile:max_flips": _TESTS,
    "repro.sim.faults.WireFaultProfile:reorder_delay": _TESTS,
    "repro.sim.faults.FaultInjector.partition_at:duration": _TESTS,
    "repro.sim.network.Network:metrics": _TESTS,
    "repro.sim.network.Network:wire_faults": _TESTS,
    "repro.sim.stats.MetricRegistry.add_labelled:amount": _TESTS,
    # -- the switch for signed-package verification (section 2.3)
    "repro.node.node.Node:vendor_keys": _TESTS,
    "repro.node.node.Node:require_signature": _TESTS,
}

#: Allowed settings no call in ``tests/`` spells either, because they
#: are reached through a name the scan cannot follow.
API_SHAPE = {
    "repro.analysis.simlint.engine.rule:func",
    "repro.orb.exceptions.SystemException:reason",
    "repro.orb.exceptions.SystemException:minor",
    "repro.orb.exceptions.SystemException:completed",
}


class Setting(NamedTuple):
    key: str                 # "module.Qualname:param"
    callee: str              # the name calls spell
    param: str
    index: Optional[int]     # position a caller passes it at, if any
    config_field: bool = False


class Call(NamedTuple):
    positional: int
    keywords: frozenset
    star: bool
    double_star: bool


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", getattr(func, "attr", "")) == "dataclass":
            return True
    return False


def _defaulted(fn, prefix: str, callee: str, skip_first: bool):
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    offset = 1 if skip_first else 0
    for i, arg in enumerate(positional):
        if i >= first_default and i >= offset \
                and not arg.arg.startswith("_"):
            yield Setting(f"{prefix}:{arg.arg}", callee, arg.arg, i - offset)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not arg.arg.startswith("_"):
            yield Setting(f"{prefix}:{arg.arg}", callee, arg.arg, None)


def settings_in(tree: ast.Module, module: str):
    """Every setting a caller could pass to *module*'s public names."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and \
                not node.name.startswith("_"):
            yield from _defaulted(node, f"{module}.{node.name}", node.name,
                                  skip_first=False)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        prefix = f"{module}.{node.name}"
        if _is_dataclass(node) and node.name.endswith(CONFIG_SUFFIXES):
            fields = [st for st in node.body
                      if isinstance(st, ast.AnnAssign)
                      and isinstance(st.target, ast.Name)
                      and "ClassVar" not in ast.unparse(st.annotation)]
            for index, st in enumerate(fields):
                if st.value is not None:
                    yield Setting(f"{prefix}:{st.target.id}", node.name,
                                  st.target.id, index, config_field=True)
        for st in node.body:
            if not isinstance(st, ast.FunctionDef):
                continue
            decorators = {getattr(d, "id", getattr(d, "attr", ""))
                          for d in st.decorator_list}
            if decorators & {"property", "setter"}:
                continue
            if st.name == "__init__":
                yield from _defaulted(st, prefix, node.name,
                                      skip_first=True)
            elif not st.name.startswith("_"):
                yield from _defaulted(
                    st, f"{prefix}.{st.name}", st.name,
                    skip_first="staticmethod" not in decorators)


def _modules(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def all_settings() -> list:
    out = []
    for path, tree in _modules(ROOT / "src" / "repro"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("")
                          .parts)
        out += settings_in(tree, module.removesuffix(".__init__"))
    return out


def _callees(node: ast.Call, enclosing: Optional[ast.ClassDef]):
    """(names the call may reach, positional args a bound call spends
    on ``self``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return [func.id], 0
    if not isinstance(func, ast.Attribute):
        return [], 0
    if func.attr != "__init__":
        return [func.attr], 0
    if isinstance(func.value, ast.Call) and \
            getattr(func.value.func, "id", "") == "super":
        bases = enclosing.bases if enclosing is not None else []
        return [getattr(b, "id", getattr(b, "attr", "")) for b in bases], 0
    if isinstance(func.value, ast.Name):
        return [func.value.id], 1
    return [], 0


def all_calls(directories=CALLER_DIRS) -> dict:
    """callee name -> [Call] over every file under *directories*."""
    calls = defaultdict(list)

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            visit(child, node if isinstance(node, ast.ClassDef)
                  else enclosing)
        if not isinstance(node, ast.Call):
            return
        names, spent = _callees(node, enclosing)
        call = Call(
            positional=sum(not isinstance(a, ast.Starred)
                           for a in node.args) - spent,
            keywords=frozenset(k.arg for k in node.keywords if k.arg),
            star=any(isinstance(a, ast.Starred) for a in node.args),
            double_star=any(k.arg is None for k in node.keywords))
        for name in names:
            calls[name].append(call)

    for directory in directories:
        for _path, tree in _modules(ROOT / directory):
            visit(tree, None)
    return calls


def is_set(setting: Setting, calls: dict) -> bool:
    for call in calls.get(setting.callee, ()):
        if setting.param in call.keywords or call.double_star:
            return True
        if setting.index is not None and (call.star or
                                          call.positional > setting.index):
            return True
    return setting.config_field and any(
        setting.param in call.keywords for call in calls.get("replace", ()))


def test_every_setting_has_a_setter():
    calls = all_calls()
    unset = sorted(s.key for s in all_settings()
                   if s.key not in ALLOWED and not is_set(s, calls))
    assert not unset, (
        "settings no call in src/, benchmarks/ or examples/ passes -- "
        "make each a constant (or allow it here with a reason):\n  "
        + "\n  ".join(unset))


def test_every_allowed_setting_is_set_by_a_test():
    """An allowed setting no test passes either is unset everywhere:
    it is a constant, not an exemption."""
    calls = all_calls(TEST_DIRS)
    found = {s.key: s for s in all_settings()}
    unset = sorted(key for key in set(ALLOWED) - API_SHAPE
                   if key in found and not is_set(found[key], calls))
    assert not unset, f"allowed but passed by no test either: {unset}"
    assert API_SHAPE <= set(ALLOWED)


def test_allowlist_has_no_stale_entries():
    calls = all_calls()
    found = {s.key: s for s in all_settings()}
    stale = sorted(key for key in ALLOWED
                   if key not in found or is_set(found[key], calls))
    assert not stale, f"allowed but gone or now set: {stale}"


#: Settings that nothing set and became constants or derived values,
#: as they were declared: (module.Qualname, param, position, config
#: field).  Re-adding any of them must fail the scan above.
REMOVED = [
    ("repro.registry.federation.orchestrator.FederationConfig",
     "full_sync_every", 6, True),
    ("repro.registry.federation.orchestrator.FederationConfig",
     "gossip_batch", 7, True),
    ("repro.registry.federation.orchestrator.FederationConfig",
     "record_timeout", 9, True),
    ("repro.registry.federation.orchestrator.FederationConfig",
     "epoch_tolerance", 13, True),
    ("repro.registry.mrm.MrmConfig", "sweep_interval", 2, False),
    ("repro.sim.faults.WireFaultProfile", "dup_delay", 5, True),
    ("repro.analysis.simlint.engine.SimlintConfig", "rng_modules", 0, True),
    ("repro.analysis.simlint.engine.SimlintConfig", "action_prefix", 3,
     True),
    ("repro.analysis.simlint.engine.SimlintConfig", "decode_call_re", 4,
     True),
    ("repro.analysis.simlint.engine.SimlintConfig", "metric_methods", 5,
     True),
    ("repro.analysis.simlint.engine.SimlintConfig", "span_methods", 6, True),
    ("repro.analysis.simlint.engine.SimlintConfig", "names_exempt_modules",
     7, True),
    ("repro.registry.replication.MrmSupervisor", "failures_needed", 3,
     False),
    ("repro.registry.strongstate.StrongStateReporter", "heartbeat_divisor",
     3, False),
    ("repro.grid.idle.IdleMonitor", "busy_cpu_fraction", 4, False),
    ("repro.grid.idle.IdleMonitor", "start_idle", 5, False),
    ("repro.grid.volunteer.VolunteerMaster", "dispatch_interval", 3, False),
    ("repro.analysis.gate.DeploymentGate", "use_ifr", 1, False),
    ("repro.chaos.invariants.AdmissionRecoveredMonitor", "stale_after", 0,
     False),
    ("repro.sim.kernel.Environment", "initial_time", 0, False),
    ("repro.analysis.descriptors.PackageSet.add_package", "source", 1, False),
    ("repro.analysis.gate.DeploymentGate", "strict_interfaces", 0, False),
    ("repro.chaos.campaign.ChaosCampaign", "monitors", 2, False),
    ("repro.chaos.campaign.run_campaign", "n_clusters", 2, False),
    ("repro.chaos.campaign.run_campaign", "cluster_size", 3, False),
    ("repro.chaos.scenario.build_world", "n_clusters", 1, False),
    ("repro.chaos.scenario.build_world", "cluster_size", 2, False),
    ("repro.chaos.scenario.build_world", "config", 3, False),
    ("repro.components.ports.EventSinkPort", "consumer_ior", 2, False),
    ("repro.container.aggregation.AggregationCoordinator.run", "facet_port",
     3, False),
    ("repro.container.replication.ReplicaManager.create_group",
     "facet_port", 2, False),
    ("repro.deployment.application.Application.repair", "state", 2, False),
    ("repro.deployment.application.Application.repair", "fence", 3, False),
    ("repro.idl.codegen.compile_idl", "ifr", 1, False),
    ("repro.idl.codegen.compile_idl", "default_cpu_cost", 2, False),
    ("repro.idl.codegen.compile_ast", "default_cpu_cost", 2, False),
    ("repro.orb.model.InterfaceDef.add_attribute", "cpu_cost", 3, False),
    ("repro.node.node.Node", "binaries", 3, False),
    ("repro.node.node.Node", "obs", 7, False),
    ("repro.node.repository.ComponentRepository", "binaries", 1, False),
    ("repro.components.model.ComponentClass", "binaries", 2, False),
    ("repro.obs.Observability.span", "parent", 1, False),
    ("repro.orb.retry.invoke_with_retry", "meter", 5, False),
    ("repro.packaging.binaries.compressed_size", "level", 1, False),
    ("repro.packaging.package.ComponentPackage.extract_subset", "compress",
     3, False),
    ("repro.registry.prediction.PredictiveReporter", "alpha", 4, False),
    ("repro.registry.prediction.PredictiveReporter", "meter", 6, False),
    ("repro.registry.softstate.SoftStateReporter", "meter", 4, False),
    ("repro.registry.strongstate.StrongStateReporter", "retries", 3, False),
    ("repro.registry.strongstate.StrongStateReporter", "meter", 4, False),
    ("repro.tools.licensing.UsageMeter.total_due", "vendor", 0, False),
    ("repro.xmlmeta.schema.validate_element", "path", 2, False),
    ("repro.orb.poa.POA.serve", "key", 1, False),
    ("repro.sim.topology.line", "profile", 1, False),
    ("repro.sim.topology.line", "link_class", 2, False),
    ("repro.sim.topology.clustered", "intra", 2, False),
    ("repro.sim.topology.clustered", "inter", 3, False),
    # demo package factories: the values are literals in the descriptors
    ("repro.cscw.display.display_package", "version", 0, False),
    ("repro.cscw.video.stream_source_package", "version", 0, False),
    ("repro.cscw.video.video_decoder_package", "version", 0, False),
    ("repro.cscw.whiteboard.whiteboard_package", "version", 0, False),
    ("repro.cscw.whiteboard.gui_part_package", "version", 0, False),
    ("repro.grid.worker.montecarlo_package", "version", 0, False),
    ("repro.grid.worker.montecarlo_package", "cpu_units", 1, False),
    ("repro.testing.sum_worker_package", "version", 0, False),
    ("repro.testing.sum_worker_package", "name", 1, False),
    ("repro.testing.sum_worker_package", "cpu_units", 2, False),
    ("repro.deployment.bootstrap.application_package", "version", 1, False),
    ("repro.deployment.bootstrap.application_package", "vendor", 2, False),
    ("repro.deployment.bootstrap.application_package", "name", 3, False),
    # the gossip round's bus plumbing: its frame's meter, and the
    # prefix of the bus windows' counters
    ("repro.events.remote.FanoutForwarder", "meter", 4, False),
    ("repro.events.batch_writer.BatchWriter", "name", 5, False),
]


def test_a_removed_setting_re_added_would_fail_the_scan():
    calls = all_calls()
    caught = [qualname for qualname, param, index, field in REMOVED
              if not is_set(Setting(f"{qualname}:{param}",
                                    qualname.rsplit(".", 1)[1], param,
                                    index, field), calls)
              and f"{qualname}:{param}" not in ALLOWED]
    assert len(caught) == len(REMOVED) == 72


def test_the_scan_sees_each_kind_of_setting():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class PingConfig:\n"
        "    period: float\n"
        "    burst: int = 3\n"
        "class Pinger:\n"
        "    def __init__(self, node, jitter=0.0, *, _depth=0): ...\n"
        "    def ping(self, host, *, timeout=None): ...\n"
        "    @property\n"
        "    def quiet(self, level=1): ...\n"
        "def ping_all(hosts, fanout=2): ...\n"
        "def _private(x=1): ...\n")
    found = {s.key: s for s in settings_in(ast.parse(source), "m")}
    assert set(found) == {"m.PingConfig:burst", "m.Pinger:jitter",
                          "m.Pinger.ping:timeout", "m.ping_all:fanout"}
    assert found["m.PingConfig:burst"].index == 1
    assert found["m.Pinger:jitter"].index == 1
    assert found["m.Pinger.ping:timeout"].index is None
    calls = {"Pinger": [Call(2, frozenset(), False, False)]}
    assert is_set(found["m.Pinger:jitter"], calls)
    assert not is_set(found["m.PingConfig:burst"], calls)

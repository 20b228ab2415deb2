"""Runtime containment: everything a live run emits is declared.

The static SIM030/SIM031 rules pin emit-site *literals* to
``repro.obs.names``; this test closes the loop on the dynamic side by
running a full chaos campaign (ORB traffic, federation gossip,
supervision, events, faults) and asserting every metric and span name
that actually materialized is declared — exactly or via a pattern.
"""

import re
from pathlib import Path

from repro.chaos import CampaignConfig, ChaosCampaign
from repro.chaos.scenario import build_world
from repro.obs import names


def _run_world(seed=3, horizon=20.0):
    world = build_world(seed)
    campaign = ChaosCampaign(world, CampaignConfig(horizon=horizon))
    campaign.run()
    return world


class TestRuntimeContainment:
    def test_emitted_metric_names_are_declared(self):
        world = _run_world()
        undeclared = names.undeclared_metrics(world.rig.metrics)
        assert undeclared == set(), (
            f"undeclared metric names emitted at runtime: "
            f"{sorted(undeclared)}; declare them in repro.obs.names")

    def test_emitted_span_names_are_declared(self):
        world = _run_world(seed=4)
        undeclared = names.undeclared_spans(world.rig.obs.tracer)
        assert undeclared == set(), (
            f"undeclared span labels emitted at runtime: "
            f"{sorted(undeclared)}; declare them in repro.obs.names")


class TestRegistryShape:
    def test_patterns_contain_a_wildcard(self):
        for pattern in names.METRIC_PATTERNS | names.SPAN_PATTERNS:
            assert "*" in pattern, pattern

    def test_exact_names_do_not(self):
        for name in names.METRIC_NAMES | names.SPAN_NAMES:
            assert "*" not in name, name

    def test_no_exact_name_shadows_itself_via_pattern(self):
        # exact declarations should be exact; a name that only matches
        # through a pattern belongs in the pattern family instead.
        assert names.metric_declared("supervisor.recoveries")
        assert not names.metric_declared("supervisor.recoverys")

    def test_every_name_constant_is_used_outside_the_registry(self):
        # a constant nothing else in src/repro refers to is a dead
        # declaration: the emit site it named was deleted or renamed.
        root = Path(names.__file__).resolve().parents[1]
        others = [path.read_text() for path in sorted(root.rglob("*.py"))
                  if path != Path(names.__file__).resolve()]
        constants = [name for name, value in vars(names).items()
                     if name.isupper() and isinstance(value, str)]
        assert constants
        orphans = [name for name in constants
                   if not any(re.search(rf"\b{name}\b", text)
                              for text in others)]
        assert orphans == [], (
            f"declared in repro.obs.names but referenced nowhere else "
            f"under src/repro: {orphans}")

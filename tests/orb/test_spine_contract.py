"""The benchmark's patch points exist where it looks for them.

``benchmarks/spine/trace.py`` wraps ``owner.__dict__[attr]`` for every
entry of ``patch_targets()``.  A refactor that moves an entry point off
its class (or turns it into an inherited or instance attribute) would
otherwise be noticed first by the benchmark, not by tier-1.
"""

import importlib.util
from pathlib import Path

TRACE_PY = (Path(__file__).resolve().parents[2]
            / "benchmarks" / "spine" / "trace.py")


def load_trace():
    spec = importlib.util.spec_from_file_location("_spine_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_a_callable_of_its_owner():
    targets = load_trace().patch_targets()
    assert targets
    missing = [(layer, owner.__name__, attr)
               for layer, owner, attr in targets
               if not callable(owner.__dict__.get(attr))]
    assert missing == []


"""C20 — simlint seeded-defect detection and whole-tree scan cost.

A corpus of planted defects — one bad/good snippet pair per simlint
rule code — is linted with the same configuration the gate uses.  The
claim quantified here is two-sided: every planted defect is detected
with the expected code (no misses), and every corrected twin lints
clean (no false alarms), so the gate can run at default severity
without a human triage step.  The benchmark also times the full
``src/repro`` scan, the cost ``make check`` actually pays.

Run ``python benchmarks/bench_simlint.py --selftest`` for the
assertion-only mode wired into ``make check``.
"""

import textwrap
import time
from pathlib import Path

from _harness import report, stash
from repro.analysis.simlint import (
    SimlintConfig,
    SourceFile,
    lint_paths,
    lint_sources,
)
from repro.util.diagnostics import Severity

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: snippets are linted as a designated control-loop + action module so
#: every rule family is armed.
CONFIG = SimlintConfig(control_loop_modules=("corpus/mod.py",),
                       action_modules=("corpus/mod.py",))

#: (label, expected code, defective snippet, corrected twin)
PLANTED = [
    ("stdlib random import", "SIM001",
     "import random\n",
     "import json\n"),
    ("wall-clock read", "SIM002",
     """
     import time
     def stamp():
         return time.time()
     """,
     """
     def stamp(env):
         return env.now
     """),
    ("ad-hoc RNG construction", "SIM003",
     """
     import numpy as np
     def draw(seed):
         return np.random.default_rng(seed).random()
     """,
     """
     from repro.sim.rng import derived_stream
     def draw(seed):
         return derived_stream("corpus.draw", seed).random()
     """),
    ("global numpy draw", "SIM003",
     """
     import numpy as np
     def draw():
         return np.random.uniform()
     """,
     """
     def draw(rngs):
         return rngs.stream("corpus.draw").uniform()
     """),
    ("set iteration order", "SIM004",
     """
     def snap(items):
         pending = set(items)
         return [x for x in pending]
     """,
     """
     def snap(items):
         pending = set(items)
         return sorted(pending)
     """),
    ("bare except", "SIM010",
     """
     def once():
         try:
             risky()
         except:
             pass
     """,
     """
     def once():
         try:
             risky()
         except ValueError:
             pass
     """),
    ("interrupt-swallowing handler", "SIM011",
     """
     def loop(env):
         while True:
             try:
                 step()
             except Exception:
                 pass
             yield env.timeout(1.0)
     """,
     """
     def loop(env):
         while True:
             try:
                 step()
             except Interrupt:
                 raise
             except Exception:
                 pass
             yield env.timeout(1.0)
     """),
    ("unguarded decode in loop", "SIM012",
     """
     def loop(env, peer):
         try:
             while True:
                 state = loads_state(peer.call())
                 apply(state)
                 yield env.timeout(1.0)
         except Interrupt:
             pass
     """,
     """
     def loop(env, peer):
         try:
             while True:
                 try:
                     state = loads_state(peer.call())
                 except StateDecodeError:
                     continue
                 apply(state)
                 yield env.timeout(1.0)
         except Interrupt:
             pass
     """),
    ("perpetual loop, no Interrupt", "SIM013",
     """
     def loop(env):
         while True:
             step()
             yield env.timeout(1.0)
     """,
     """
     def loop(env):
         try:
             while True:
                 step()
                 yield env.timeout(1.0)
         except Interrupt:
             pass
     """),
    ("fault installer, no revert", "SIM020",
     """
     def act_kill(world, rng):
         host = pick(world, rng)
         host.crash()
         return host, None, "killed"
     """,
     """
     def act_kill(world, rng):
         host = pick(world, rng)
         host.crash()
         def revert():
             host.recover()
         return host, revert, "killed"
     """),
    ("staged ring never settled", "SIM021",
     """
     def churn(ring, host, apply_now):
         ring.stage_remove(host)
         if apply_now:
             ring.rebalance()
         return ring
     """,
     """
     def churn(ring, host, apply_now):
         ring.stage_remove(host)
         if apply_now:
             ring.rebalance()
         else:
             ring.cancel_staged()
         return ring
     """),
    ("typo'd metric name", "SIM030",
     """
     def tick(metrics):
         metrics.counter("supervisor.recoverys").inc()
     """,
     """
     def tick(metrics):
         metrics.counter("supervisor.recoveries").inc()
     """),
    ("undeclared span label", "SIM031",
     """
     def promote(obs):
         with obs.span("supervisor.promot"):
             pass
     """,
     """
     def promote(obs):
         with obs.span("supervisor.promote"):
             pass
     """),
    ("another host's liveness read off the simulator", "SIM040",
     """
     def backups(self, group):
         return [m for m in group.members
                 if self.topology.host(m.host).alive]
     """,
     """
     def backups(self, group):
         live = self.registry.live_hosts()
         return [m for m in group.members if m.host in live]
     """),
]


def _lint(snippet: str):
    source = SourceFile.parse("corpus/mod.py", textwrap.dedent(snippet))
    return list(lint_sources([source], config=CONFIG))


def run() -> dict:
    detected, missed, false_alarms = [], [], []
    for label, code, bad, good in PLANTED:
        bad_codes = {f.code for f in _lint(bad)}
        (detected if code in bad_codes else missed).append(label)
        leftovers = _lint(good)
        if leftovers:
            false_alarms.append((label, [f.code for f in leftovers]))

    start = time.perf_counter()
    diag = lint_paths([str(SRC)], root=str(REPO_ROOT))
    wall_s = time.perf_counter() - start
    gated = [f for f in diag if f.severity >= Severity.WARNING]
    return {
        "planted": len(PLANTED),
        "detected": detected,
        "missed": missed,
        "false_alarms": false_alarms,
        "files_scanned": sum(1 for _ in SRC.rglob("*.py")),
        "tree_wall_s": wall_s,
        "tree_findings": len(gated),
    }


def _check(result: dict) -> None:
    assert not result["missed"], f"missed defects: {result['missed']}"
    assert len(result["detected"]) == result["planted"]
    assert not result["false_alarms"], result["false_alarms"]
    assert result["tree_findings"] == 0
    assert result["tree_wall_s"] < 30.0, result["tree_wall_s"]


def test_seeded_defect_detection(benchmark, capsys):
    result = run()
    benchmark.pedantic(
        lambda: lint_paths([str(SRC)], root=str(REPO_ROOT)),
        rounds=3, iterations=1)
    rows = [[label, code, "detected", "clean"]
            for (label, code, _, _) in PLANTED]
    report(capsys,
           "C20: planted-defect corpus, one bad/good pair per rule",
           ["defect", "code", "bad twin", "good twin"], rows,
           note=f"{len(result['detected'])}/{result['planted']} planted "
                f"defects detected, 0 false alarms on corrected twins; "
                f"full src/repro scan ({result['files_scanned']} files) "
                f"in {result['tree_wall_s']:.2f}s with 0 findings")
    _check(result)
    stash(benchmark,
          planted=result["planted"],
          detected=len(result["detected"]),
          false_alarms=len(result["false_alarms"]),
          files_scanned=result["files_scanned"],
          tree_wall_s=round(result["tree_wall_s"], 3))


def selftest() -> int:
    result = run()
    _check(result)
    print("bench_simlint selftest ok: "
          f"{len(result['detected'])}/{result['planted']} planted "
          f"defects detected, 0 false alarms; src/repro "
          f"({result['files_scanned']} files) scanned in "
          f"{result['tree_wall_s']:.2f}s, 0 findings")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="simlint seeded-defect detection benchmark")
    parser.add_argument("--selftest", action="store_true",
                        help="run the assertion-only gate (no tables)")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    parser.error("run via pytest for the full report, or pass --selftest")

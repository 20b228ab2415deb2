"""``run.py --selftest``: the benchmark checks itself, in under 30 s.

All four workloads at 1/50 scale, every drill and a traced pass each,
run as the contract runs them (fresh subprocesses, two at a time on
this two-core box).  Asserts:

- ``BENCHMARK.json`` is exactly what ``metrics.py`` declares and stays
  inside the contract's limits (names, units, bounds, counts);
- the result line has exactly the contract's keys and every metric name
  matches ``[A-Za-z0-9_.-]+`` and is declared;
- per-workload layer shares + ``driver.untraced_share`` = 1 +- 0.02 and
  every estimated share is tagged;
- determinism: every simulated number is identical across two runs of
  one seed under two ``PYTHONHASHSEED`` values, and a second seed gives
  a valid run whose simulated numbers differ.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from spine import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCALE = 50


def check_manifest(problems: list) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    if manifest != metrics.manifest():
        problems.append("BENCHMARK.json differs from metrics.manifest(); "
                        "run run.py --write-manifest")
    names = [w["name"] for w in manifest["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in manifest[section]]
        for m in manifest[section]:
            if not UNIT.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r} on {m['name']}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"bad direction on {m['name']}")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice in BENCHMARK.json")
    for m in manifest["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    for w in manifest["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one short line")
    if not (2 <= len(manifest["workloads"]) <= 8
            and 1 <= len(manifest["end_to_end"]) <= 16
            and 1 <= len(manifest["per_layer"]) <= 128):
        problems.append("BENCHMARK.json section sizes outside the contract")
    if "setup_s" not in [m["name"] for m in manifest["end_to_end"]]:
        problems.append("setup_s missing from end_to_end")
    return manifest


def _launch(workload: str, seed: int, trace: int, hashseed: str):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    seconds = metrics.RUN_SECONDS / SCALE
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--setup-samples", "2",
         "--drill-seconds", "0.02"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT))


def _run_jobs(jobs: list, width: int = 2) -> dict:
    """Run ``(key, launch args)`` jobs *width* at a time."""
    results = {}
    pending = list(jobs)
    running = []
    while pending or running:
        while pending and len(running) < width:
            key, args = pending.pop(0)
            running.append((key, _launch(*args)))
        key, proc = running.pop(0)
        out, err = proc.communicate()
        results[key] = (proc.returncode, out, err)
    return results


def _result_line(key, outcome, declared: list, problems: list):
    code, out, err = outcome
    if code != 0:
        problems.append(f"{key}: exit {code}: {(out + err)[-600:]}")
        return None
    line = json.loads(out.strip().splitlines()[-1])
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{key}: result keys are {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0 \
            or line["attempted"] < 1:
        problems.append(f"{key}: correct={line['correct']} "
                        f"attempted={line['attempted']} "
                        f"failed={line['failed']}")
    if sorted(line["metrics"]) != sorted(declared):
        problems.append(f"{key}: metrics printed differ from the declared "
                        f"set: {set(line['metrics']) ^ set(declared)}")
    for name, cell in line["metrics"].items():
        if not NAME.match(name):
            problems.append(f"{key}: bad metric name {name!r}")
        if sorted(cell) != ["unit", "value"] \
                or not isinstance(cell["value"], (int, float)):
            problems.append(f"{key}: bad cell for {name}")
    return line


def selftest() -> int:
    started = time.perf_counter()
    problems: list = []
    manifest = check_manifest(problems)
    e2e_names = [m["name"] for m in manifest["end_to_end"]]
    layer_names = [m["name"] for m in manifest["per_layer"]]
    sim_layer = [m.name for m in metrics.PER_LAYER if m.kind == metrics.SIM]

    jobs = []
    for w in metrics.WORKLOADS:
        jobs.append(((w.name, "a"), (w.name, 11, 1, "1")))
        jobs.append(((w.name, "b"), (w.name, 11, 1, "2")))
        jobs.append(((w.name, "c"), (w.name, 12, 0, "1")))
    outcomes = _run_jobs(jobs)

    for w in metrics.WORKLOADS:
        a = _result_line((w.name, "a"), outcomes[(w.name, "a")],
                         layer_names, problems)
        b = _result_line((w.name, "b"), outcomes[(w.name, "b")],
                         layer_names, problems)
        c = _result_line((w.name, "c"), outcomes[(w.name, "c")],
                         e2e_names, problems)
        if a is None or b is None or c is None:
            continue
        # shares sum to one
        total = sum(a["metrics"][n]["value"] for n in layer_names
                    if n.endswith(".share") or n == "driver.untraced_share")
        if abs(total - 1.0) > 0.02:
            problems.append(f"{w.name}: shares sum to {total:.4f}")
        with open(HERE / "out" / f"{w.name}.seed11.trace1.json") as fh:
            doc = json.load(fh)
        for layer in metrics.ESTIMATED_LAYERS:
            if doc["shares"][layer]["source"] != "estimated":
                problems.append(f"{w.name}: {layer} share not tagged")
        if not (ROOT / doc["spans_file"]).exists():
            problems.append(f"{w.name}: spans were not written out")
        # determinism across PYTHONHASHSEED
        for name in sim_layer:
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                problems.append(f"{w.name}: {name} differs across "
                                "PYTHONHASHSEED")
        # a second seed is a valid, different run
        with open(HERE / "out" / f"{w.name}.seed12.trace0.json") as fh:
            other = json.load(fh)
        same = all(other["end_to_end"][n] == doc["end_to_end"][n]
                   for n in metrics.SIM_END_TO_END)
        if same:
            problems.append(f"{w.name}: seed 12 reproduced seed 11's "
                            "simulated numbers exactly")

    elapsed = time.perf_counter() - started
    if elapsed > 30.0:
        problems.append(f"selftest took {elapsed:.1f} s (budget 30 s)")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"spine selftest {'ok' if not problems else 'FAILED'}: "
          f"{len(jobs)} runs, {len(layer_names)} per-layer and "
          f"{len(e2e_names)} end-to-end metrics, {elapsed:.1f} s")
    return 1 if problems else 0

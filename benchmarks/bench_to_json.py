"""Run benchmark suites and distill headline JSON records.

Not a pytest suite: run it as a script.  ``--suite S`` runs the suite's
bench file under pytest-benchmark, distills the headline figures its
``SUITES`` entry names into a ``current`` block, and writes
``BENCH_<S>.json`` at the repository root, keeping a ``history`` array
of prior ``current`` blocks across regenerations.  The default suite,
``orb`` (C1), also compares against the recorded pre-optimisation
interpreter baseline.

    PYTHONPATH=src python benchmarks/bench_to_json.py
    PYTHONPATH=src python benchmarks/bench_to_json.py --suite eventbus
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Measured on this repo immediately before the compiled-codec PR, when
# every encode/decode walked the TypeCode interpreter.  Kept here so the
# JSON always records the speedup against a fixed reference point.
BASELINE = {
    "label": "interpreter (pre compiled-plan PR)",
    "cdr_marshal_MB_per_s": 2.55,
    "cdr_marshal_us_per_100_values": 11297.0,
    "cdr_unmarshal_us_per_100_values": 11431.0,
    "invocation_us_per_call": 575.46,
    "calls_per_sec": 1e6 / 575.46,
}


def run_benchmarks(bench_file: str) -> dict:
    """Run *bench_file* and return pytest-benchmark's JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = pathlib.Path(tmp) / "raw.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(
            ROOT / "benchmarks")
        subprocess.run(
            [sys.executable, "-m", "pytest",
             str(ROOT / "benchmarks" / bench_file),
             "--benchmark-only", f"--benchmark-json={raw}", "-q",
             "-p", "no:cacheprovider"],
            check=True, cwd=ROOT, env=env,
        )
        return json.loads(raw.read_text())


def load_history(out: pathlib.Path) -> list:
    """Prior `current` blocks, oldest first, so every regeneration keeps
    the optimisation trail (interpreter -> plans -> generated source)."""
    if not out.exists():
        return []
    try:
        prior = json.loads(out.read_text())
    except (json.JSONDecodeError, OSError):
        return []
    history = list(prior.get("history", []))
    current = prior.get("current")
    if current:
        history.append({"generated": prior.get("generated"), **current})
    return history


def _us_per_100_values(test: str):
    def value(runs: dict):
        run = runs.get(test)
        return run["mean_s"] * 1e6 if run else None
    return value


def _calls_per_sec(runs: dict):
    per_call_us = runs.get("test_invocation_wall_cost", {}).get(
        "per_call_us")
    return 1e6 / per_call_us if per_call_us else None


def _orb_blocks(current: dict, runs: dict) -> dict:
    """The orb suite's comparison against the interpreter baseline."""
    invocation = runs.get("test_invocation_wall_cost", {})

    def ratio(key):
        cur, base = current.get(key), BASELINE.get(key)
        return round(cur / base, 2) if cur and base else None

    return {
        "baseline": BASELINE,
        "codegen": {
            "cache_hits": invocation.get("codegen_cache_hits"),
            "cache_misses": invocation.get("codegen_cache_misses"),
            "encode_calls_per_bench": invocation.get("codegen_encode_calls"),
            "decode_calls_per_bench": invocation.get("codegen_decode_calls"),
        },
        "speedup": {
            "cdr_marshal": ratio("cdr_marshal_MB_per_s"),
            "calls_per_sec": ratio("calls_per_sec"),
        },
    }


class Suite(NamedTuple):
    """One benchmark suite and the record distilled from it."""

    bench: str          # file under benchmarks/
    claim: str          # the experiment it reproduces
    test: str           # the benchmark whose extra_info holds the figures
    label: str
    #: current-block key -> extra_info key of ``test`` ("other_test.key"
    #: reads another benchmark's), or a function of every run
    fields: dict
    out: pathlib.Path
    #: the printed summary, formatted with the record and its current block
    summary: str
    #: extra top-level blocks: (current, runs) -> dict
    blocks: Optional[Callable[[dict, dict], dict]] = None


SUITES = {
    "orb": Suite(
        "bench_orb_micro.py", "C1", "test_invocation_wall_cost",
        "generated source codecs", {
            "cdr_marshal_MB_per_s": "test_cdr_marshal_throughput.mb_per_s",
            "cdr_unmarshal_MB_per_s":
                "test_cdr_unmarshal_throughput.mb_per_s",
            "cdr_marshal_us_per_100_values":
                _us_per_100_values("test_cdr_marshal_throughput"),
            "cdr_unmarshal_us_per_100_values":
                _us_per_100_values("test_cdr_unmarshal_throughput"),
            "any_stroke_roundtrip_us":
                "test_any_stroke_roundtrip.any_roundtrip_us",
            "invocation_us_per_call": "per_call_us",
            # the same call to an object of the caller's own ORB
            "per_call_us_local": "per_call_us_local",
            # the two-host call with Observability on both ORBs
            "per_call_us_obs": "per_call_us_obs",
            "calls_per_sec": _calls_per_sec,
        }, ROOT / "BENCH_orb.json",
        "  CDR marshal: {cdr_marshal_MB_per_s:.1f} MB/s "
        "({speedup[cdr_marshal]}x vs interpreter baseline)\n"
        "  invocations: {calls_per_sec:.0f} calls/s "
        "({speedup[calls_per_sec]}x vs interpreter baseline); "
        "{invocation_us_per_call:.1f} us per call, "
        "{per_call_us_obs:.1f} us with obs on",
        blocks=_orb_blocks),
    "eventbus": Suite(
        "bench_eventbus.py", "C17", "test_eventbus_fanout",
        "event bus + batched fan-out + GIOP pipelining", {
            # the bus arm's mean over its rounds, beside their minimum
            # and standard deviation
            "throughput_bus_events_per_s": "throughput_bus",
            "throughput_bus_events_per_s_min": "throughput_bus_min",
            "throughput_bus_events_per_s_stdev": "throughput_bus_stdev",
            "throughput_bus_rounds": "throughput_bus_rounds",
            "throughput_p2p_events_per_s": "throughput_p2p",
            "speedup": "speedup",
            "messages_bus": "messages_bus",
            "messages_p2p": "messages_p2p",
            "bytes_bus": "bytes_bus",
            "bytes_p2p": "bytes_p2p",
            "batches": "batches",
        }, ROOT / "BENCH_eventbus.json",
        "  fan-out: {throughput_bus_events_per_s:,.0f} (min "
        "{throughput_bus_events_per_s_min:,.0f}, sd "
        "{throughput_bus_events_per_s_stdev:,.0f}, "
        "{throughput_bus_rounds} rounds) vs "
        "{throughput_p2p_events_per_s:,.0f} events/s ({speedup:.1f}x), "
        "{messages_bus:.0f} vs {messages_p2p:.0f} messages"),
    "federation": Suite(
        "bench_federation.py", "C18", "test_federation_scaling",
        "consistent-hash shards + epidemic gossip", {
            "hosts": "hosts",
            "lookup_p50_sharded_s": "p50_sharded",
            "lookup_p99_sharded_s": "p99_sharded",
            "lookup_p50_flood_s": "p50_flood",
            "lookup_p99_flood_s": "p99_flood",
            "speedup_p99": "speedup_p99",
            "convergence_s": "convergence_s",
            "convergence_rounds": "convergence_rounds",
            "churn_killed": "churn_killed",
            "partition_s": "partition_s",
            "messages_sharded": "messages_sharded",
            "messages_flood": "messages_flood",
            "gossip_bytes_per_frame": "gossip_bytes_per_frame",
        }, ROOT / "BENCH_federation.json",
        "  lookup p99 on {hosts} hosts: {lookup_p99_sharded_s:.3f}s "
        "sharded vs {lookup_p99_flood_s:.3f}s flood ({speedup_p99:.1f}x); "
        "churn convergence {convergence_s:.1f}s "
        "({convergence_rounds:.0f} rounds)"),
    "chaos": Suite(
        "bench_chaos.py", "C19", "test_chaos_campaigns",
        "seeded chaos campaigns + invariant monitors, 45 s campaigns", {
            "profiles": "profiles",
            "actions": "actions",
            "checks": "checks",
            "violations": "violations",
            "client_ok": "client_ok",
            "client_errors": "client_errors",
            "recoveries": "recoveries",
            "report_digests": "digests",
        }, ROOT / "BENCH_chaos.json",
        "  {profiles} campaign profiles, {actions} faults, {checks} "
        "invariant checks, {violations} violations"),
    "simlint": Suite(
        "bench_simlint.py", "C20", "test_seeded_defect_detection",
        "simlint seeded-defect corpus + whole-tree scan", {
            "planted_defects": "planted",
            "detected": "detected",
            "false_alarms": "false_alarms",
            "files_scanned": "files_scanned",
            "tree_scan_wall_s": "tree_wall_s",
            "tree_scan_mean_s": "mean_s",
        }, ROOT / "BENCH_simlint.json",
        "  {detected}/{planted_defects} planted defects detected, "
        "{false_alarms} false alarms; {files_scanned} files scanned in "
        "{tree_scan_wall_s:.2f}s"),
}


def distill(suite: Suite, raw: dict, history: list) -> dict:
    """The BENCH_<suite>.json record of one pytest-benchmark run."""
    runs = {}
    for bench in raw.get("benchmarks", []):
        runs[bench["name"].split("[")[0]] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            **bench.get("extra_info", {}),
        }
    current = {"label": suite.label}
    for key, source in suite.fields.items():
        if callable(source):
            current[key] = source(runs)
        else:
            test, _, name = source.rpartition(".")
            current[key] = runs.get(test or suite.test, {}).get(name)
    record = {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": f"{suite.bench} ({suite.claim})",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "current": current,
        "history": history,
        "raw": runs,
    }
    if suite.blocks is not None:
        record.update(suite.blocks(current, runs))
    return record


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="distill benchmark suites into BENCH_*.json")
    parser.add_argument("--suite", choices=tuple(SUITES), default="orb")
    args = parser.parse_args()
    suite = SUITES[args.suite]
    result = distill(suite, run_benchmarks(suite.bench),
                     load_history(suite.out))
    suite.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {suite.out}")
    print(suite.summary.format_map({**result, **result["current"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

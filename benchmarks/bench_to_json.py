"""Run benchmark suites and distill headline JSON records.

Not a pytest suite: run it as a script.  The default (``--suite orb``)
executes ``bench_orb_micro.py`` under pytest-benchmark, extracts the
headline numbers (CDR marshalling MB/s, invocations per second),
compares them against the recorded pre-optimisation interpreter
baseline, and writes ``BENCH_orb.json`` at the repository root.
``--suite eventbus`` runs ``bench_eventbus.py`` (C17) the same way and
writes ``BENCH_eventbus.json``; ``--suite federation`` runs
``bench_federation.py`` (C18) and writes ``BENCH_federation.json``.
All keep a ``history`` array of prior ``current`` blocks across
regenerations.

    PYTHONPATH=src python benchmarks/bench_to_json.py
    PYTHONPATH=src python benchmarks/bench_to_json.py --suite eventbus
    PYTHONPATH=src python benchmarks/bench_to_json.py --suite federation
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_orb.json"
OUT_EVENTBUS = ROOT / "BENCH_eventbus.json"
OUT_FEDERATION = ROOT / "BENCH_federation.json"
OUT_CHAOS = ROOT / "BENCH_chaos.json"
OUT_SIMLINT = ROOT / "BENCH_simlint.json"

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


def run_benchmarks(bench_file: str = "bench_orb_micro.py") -> dict:
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


def load_history(out: pathlib.Path = OUT) -> list:
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


def distill(raw: dict, history: list) -> dict:
    by_name = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        by_name[name] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            **bench.get("extra_info", {}),
        }

    marshal = by_name.get("test_cdr_marshal_throughput", {})
    unmarshal = by_name.get("test_cdr_unmarshal_throughput", {})
    invocation = by_name.get("test_invocation_wall_cost", {})
    stroke = by_name.get("test_any_stroke_roundtrip", {})

    current = {
        "label": "generated source codecs",
        "cdr_marshal_MB_per_s": marshal.get("mb_per_s"),
        "cdr_unmarshal_MB_per_s": unmarshal.get("mb_per_s"),
        "cdr_marshal_us_per_100_values": (
            marshal["mean_s"] * 1e6 if marshal else None),
        "cdr_unmarshal_us_per_100_values": (
            unmarshal["mean_s"] * 1e6 if unmarshal else None),
        "any_stroke_roundtrip_us": stroke.get("any_roundtrip_us"),
        "invocation_us_per_call": invocation.get("per_call_us"),
        # the same call to an object of the caller's own ORB
        "per_call_us_local": invocation.get("per_call_us_local"),
        "calls_per_sec": (
            1e6 / invocation["per_call_us"]
            if invocation.get("per_call_us") else None),
    }
    codegen = {
        "cache_hits": invocation.get("codegen_cache_hits"),
        "cache_misses": invocation.get("codegen_cache_misses"),
        "encode_calls_per_bench": invocation.get("codegen_encode_calls"),
        "decode_calls_per_bench": invocation.get("codegen_decode_calls"),
    }

    def ratio(key):
        cur, base = current.get(key), BASELINE.get(key)
        return round(cur / base, 2) if cur and base else None

    return {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": "bench_orb_micro.py (C1)",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "baseline": BASELINE,
        "current": current,
        "codegen": codegen,
        "history": history,
        "speedup": {
            "cdr_marshal": ratio("cdr_marshal_MB_per_s"),
            "calls_per_sec": ratio("calls_per_sec"),
        },
        "raw": by_name,
    }


def distill_eventbus(raw: dict, history: list) -> dict:
    by_name = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        by_name[name] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            **bench.get("extra_info", {}),
        }
    fanout = by_name.get("test_eventbus_fanout", {})
    current = {
        "label": "event bus + batched fan-out + GIOP pipelining",
        "throughput_bus_events_per_s": fanout.get("throughput_bus"),
        "throughput_p2p_events_per_s": fanout.get("throughput_p2p"),
        "speedup": fanout.get("speedup"),
        "messages_bus": fanout.get("messages_bus"),
        "messages_p2p": fanout.get("messages_p2p"),
        "bytes_bus": fanout.get("bytes_bus"),
        "bytes_p2p": fanout.get("bytes_p2p"),
        "batches": fanout.get("batches"),
    }
    return {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": "bench_eventbus.py (C17)",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "current": current,
        "history": history,
        "raw": by_name,
    }


def distill_federation(raw: dict, history: list) -> dict:
    by_name = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        by_name[name] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            **bench.get("extra_info", {}),
        }
    scaling = by_name.get("test_federation_scaling", {})
    current = {
        "label": "consistent-hash shards + epidemic gossip",
        "hosts": scaling.get("hosts"),
        "lookup_p50_sharded_s": scaling.get("p50_sharded"),
        "lookup_p99_sharded_s": scaling.get("p99_sharded"),
        "lookup_p50_flood_s": scaling.get("p50_flood"),
        "lookup_p99_flood_s": scaling.get("p99_flood"),
        "speedup_p99": scaling.get("speedup_p99"),
        "convergence_s": scaling.get("convergence_s"),
        "convergence_rounds": scaling.get("convergence_rounds"),
        "churn_killed": scaling.get("churn_killed"),
        "partition_s": scaling.get("partition_s"),
        "messages_sharded": scaling.get("messages_sharded"),
        "messages_flood": scaling.get("messages_flood"),
    }
    return {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": "bench_federation.py (C18)",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "current": current,
        "history": history,
        "raw": by_name,
    }


def distill_chaos(raw: dict, history: list) -> dict:
    by_name = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        by_name[name] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            **bench.get("extra_info", {}),
        }
    campaigns = by_name.get("test_chaos_campaigns", {})
    current = {
        "label": "seeded chaos campaigns + invariant monitors",
        "profiles": campaigns.get("profiles"),
        "actions": campaigns.get("actions"),
        "checks": campaigns.get("checks"),
        "violations": campaigns.get("violations"),
        "client_ok": campaigns.get("client_ok"),
        "client_errors": campaigns.get("client_errors"),
        "recoveries": campaigns.get("recoveries"),
        "report_digests": campaigns.get("digests"),
    }
    return {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": "bench_chaos.py (C19)",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "current": current,
        "history": history,
        "raw": by_name,
    }


def distill_simlint(raw: dict, history: list) -> dict:
    by_name = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"].split("[")[0]
        by_name[name] = {
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            **bench.get("extra_info", {}),
        }
    corpus = by_name.get("test_seeded_defect_detection", {})
    current = {
        "label": "simlint seeded-defect corpus + whole-tree scan",
        "planted_defects": corpus.get("planted"),
        "detected": corpus.get("detected"),
        "false_alarms": corpus.get("false_alarms"),
        "files_scanned": corpus.get("files_scanned"),
        "tree_scan_wall_s": corpus.get("tree_wall_s"),
        "tree_scan_mean_s": corpus.get("mean_s"),
    }
    return {
        "generated": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "bench": "bench_simlint.py (C20)",
        "machine": raw.get("machine_info", {}).get("cpu", {}).get(
            "brand_raw", "unknown"),
        "current": current,
        "history": history,
        "raw": by_name,
    }


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="distill benchmark suites into BENCH_*.json")
    parser.add_argument("--suite",
                        choices=("orb", "eventbus", "federation",
                                 "chaos", "simlint"),
                        default="orb")
    args = parser.parse_args()

    if args.suite == "simlint":
        result = distill_simlint(run_benchmarks("bench_simlint.py"),
                                 load_history(OUT_SIMLINT))
        OUT_SIMLINT.write_text(json.dumps(result, indent=2) + "\n")
        cur = result["current"]
        print(f"wrote {OUT_SIMLINT}")
        print(f"  {cur['detected']}/{cur['planted_defects']} planted "
              f"defects detected, {cur['false_alarms']} false alarms; "
              f"{cur['files_scanned']} files scanned in "
              f"{cur['tree_scan_wall_s']:.2f}s")
        return 0

    if args.suite == "chaos":
        result = distill_chaos(run_benchmarks("bench_chaos.py"),
                               load_history(OUT_CHAOS))
        OUT_CHAOS.write_text(json.dumps(result, indent=2) + "\n")
        cur = result["current"]
        print(f"wrote {OUT_CHAOS}")
        print(f"  {cur['profiles']} campaign profiles, "
              f"{cur['actions']} faults, {cur['checks']} invariant "
              f"checks, {cur['violations']} violations")
        return 0

    if args.suite == "federation":
        result = distill_federation(
            run_benchmarks("bench_federation.py"),
            load_history(OUT_FEDERATION))
        OUT_FEDERATION.write_text(json.dumps(result, indent=2) + "\n")
        cur = result["current"]
        print(f"wrote {OUT_FEDERATION}")
        print(f"  lookup p99 on {cur['hosts']} hosts: "
              f"{cur['lookup_p99_sharded_s']:.3f}s sharded vs "
              f"{cur['lookup_p99_flood_s']:.3f}s flood "
              f"({cur['speedup_p99']:.1f}x); churn convergence "
              f"{cur['convergence_s']:.1f}s "
              f"({cur['convergence_rounds']:.0f} rounds)")
        return 0

    if args.suite == "eventbus":
        result = distill_eventbus(run_benchmarks("bench_eventbus.py"),
                                  load_history(OUT_EVENTBUS))
        OUT_EVENTBUS.write_text(json.dumps(result, indent=2) + "\n")
        cur = result["current"]
        print(f"wrote {OUT_EVENTBUS}")
        print(f"  fan-out: {cur['throughput_bus_events_per_s']:,.0f} vs "
              f"{cur['throughput_p2p_events_per_s']:,.0f} events/s "
              f"({cur['speedup']:.1f}x), {cur['messages_bus']:.0f} vs "
              f"{cur['messages_p2p']:.0f} messages")
        return 0

    result = distill(run_benchmarks(), load_history())
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    speed = result["speedup"]
    print(f"wrote {OUT}")
    print(f"  CDR marshal: {result['current']['cdr_marshal_MB_per_s']:.1f} "
          f"MB/s ({speed['cdr_marshal']}x vs interpreter baseline)")
    print(f"  invocations: {result['current']['calls_per_sec']:.0f} "
          f"calls/s ({speed['calls_per_sec']}x vs interpreter baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

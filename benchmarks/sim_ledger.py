"""The sim-exact ledger: everything the simulation determines, checked in.

Every simulated number is exact for a seed, so "nothing simulated
moved" is a diff against ``tests/golden/sim_ledger.json``, not a table
pasted into a change description.  The ledger holds

- per spine workload at seeds 5 and 11, on a short fixed-work window:
  the end-to-end sim metrics (``sim_latency_ms_p50`` / ``p99``,
  ``wire_bytes_per_op``, ``wire_msgs_per_op``, ``success_rate``) and the
  pass's other simulated fields (ops, kernel events, obs spans, the
  program counters, the codec call counts), each taken from
  ``benchmarks/spine/run.py --workload W --trace 0`` run as a
  subprocess;
- the chaos report digest of seeds 1-5, 139 and 163;
- the instrument's records (``instrument``): every retained span,
  histogram, gauge and counter of two instrumented runs -- the
  fault-free ``cscw_session`` stroke pass at seed 11 and the chaos
  campaign of seed 139, whose faults bring timeouts, exception replies
  and retries -- as a readable summary plus one SHA-256 over a
  canonical dump of all of them.

A change that moves a simulated number regenerates the ledger in the
same commit, so the JSON diff *is* the claim::

    PYTHONPATH=src python benchmarks/sim_ledger.py --write   # make golden
    PYTHONPATH=src python benchmarks/sim_ledger.py --check   # in make check

``--check`` prints every differing entry and exits 1 on any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "golden" / "sim_ledger.json"
RUN = ROOT / "benchmarks" / "spine" / "run.py"
SPINE_OUT = ROOT / "benchmarks" / "spine" / "out"

WORKLOADS = ("cscw_session", "rpc_mix", "event_fanout", "registry_churn")
SEEDS = (5, 11)
#: fixed work: each workload runs its ``rate`` x this many ops.
WINDOW_S = 1.0
CHAOS_SEEDS = (1, 2, 3, 4, 5, 139, 163)
#: the instrumented runs of the ``instrument`` block.
INSTRUMENT_STROKE_SEED = 11
INSTRUMENT_CHAOS_SEED = 139

#: end-to-end metrics the simulation determines (the others are host
#: wall-clock and memory figures).
SIM_END_TO_END = ("sim_latency_ms_p50", "sim_latency_ms_p99",
                  "wire_bytes_per_op", "wire_msgs_per_op", "success_rate")
#: simulated fields of the spine's pass record.
SIM_FIELDS = ("ops", "warm_ops", "attempted", "failed", "retried", "sim_s",
              "latency_samples", "kernel_events", "obs_spans", "counters",
              "net_dropped", "codec")


def workload_record(workload: str, seed: int, env: dict = None) -> dict:
    """The simulated numbers of one untraced spine pass.

    *env* replaces the subprocess environment (a test may add a
    ``sitecustomize`` that perturbs the program).
    """
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(WINDOW_S), "--trace", "0",
         "--setup-samples", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(ROOT), env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(SPINE_OUT / f"{workload}.seed{seed}.trace0.json") as fh:
        doc = json.load(fh)
    if (doc["workload"], doc["seed"], doc["seconds"]) != (
            workload, seed, WINDOW_S):
        raise RuntimeError(f"{workload} seed {seed}: the result file was "
                           f"overwritten by another spine run")
    untraced = doc["untraced"]
    record = {name: doc["end_to_end"][name] for name in SIM_END_TO_END}
    record.update((name, untraced[name]) for name in SIM_FIELDS)
    return record


def chaos_digest(seed: int) -> str:
    from repro.chaos import run_campaign
    return run_campaign(seed).digest()


def instrument_record(hub, metrics) -> dict:
    """One instrumented run's records: spans by (name, kind, status),
    the byte slots by span kind (legs with a message, their byte sum),
    count / total / min / max per histogram, count / total / max / last
    per gauge, and the SHA-256 of a canonical dump of every retained
    span, histogram, gauge and counter."""
    spans = list(hub.tracer.spans)
    histograms = metrics.histograms()
    gauges = metrics.gauges()
    slots: dict = {}
    for span in spans:
        for slot, size in (("bytes_in", span.bytes_in),
                           ("bytes_out", span.bytes_out)):
            if size is not None:
                entry = slots.setdefault(span.kind, {}).setdefault(
                    slot, [0, 0])
                entry[0] += 1
                entry[1] += size
    dump = {
        "spans_started": hub.tracer.started,
        "spans": [[s.trace_id, s.span_id, s.parent_id, s.name, s.kind,
                   s.host, s.start, s.end, s.status, s.error, s.bytes_in,
                   s.bytes_out, s.attrs] for s in spans],
        "histograms": {name: [h.count, h.total, h.min(), h.max(), h.counts]
                       for name, h in histograms.items()},
        "gauges": {name: [g.count, g.total, g.max(), g.last]
                   for name, g in gauges.items()},
        "counters": metrics.counters(),
    }
    canonical = json.dumps(dump, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return {
        "spans_started": hub.tracer.started,
        "spans": dict(sorted(Counter(
            f"{s.name} {s.kind} {s.status}" for s in spans).items())),
        "span_bytes": slots,
        "histograms": {name: [h.count, h.total] + (
            [h.min(), h.max()] if h.count else [None, None])
            for name, h in histograms.items()},
        "gauges": {name: [g.count, g.total] + (
            [g.max(), g.last] if g.count else [None, None])
            for name, g in gauges.items()},
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def stroke_instrument(seed: int) -> dict:
    """:func:`instrument_record` of the ``cscw_session`` pass at *seed*
    (set-up, warm-up and the ``WINDOW_S`` window; no faults)."""
    from spine.passes import run_pass
    rig = run_pass("cscw_session", seed, WINDOW_S)["_workload"].world.rig
    return instrument_record(rig.obs, rig.metrics)


def chaos_instrument(seed: int) -> dict:
    """:func:`instrument_record` of the chaos campaign of *seed*."""
    from repro.chaos.campaign import ChaosCampaign
    from repro.chaos.scenario import build_world
    world = build_world(seed)
    ChaosCampaign(world).run()
    return instrument_record(world.rig.obs, world.rig.metrics)


def instrument() -> dict:
    """The ``instrument`` block, built in this process."""
    return {
        f"cscw_session.seed{INSTRUMENT_STROKE_SEED}":
            stroke_instrument(INSTRUMENT_STROKE_SEED),
        f"chaos.seed{INSTRUMENT_CHAOS_SEED}":
            chaos_instrument(INSTRUMENT_CHAOS_SEED),
    }


def instrument_block() -> dict:
    """:func:`instrument` in a fresh interpreter, as the workload records
    are: two whole worlds built in the caller's process (a test run's,
    say) would leave it changed for whatever runs next there."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--instrument"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"instrument block: exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def build() -> dict:
    return {
        "window_s": WINDOW_S,
        "workloads": {w: {str(s): workload_record(w, s) for s in SEEDS}
                      for w in WORKLOADS},
        "chaos_digests": {str(s): chaos_digest(s) for s in CHAOS_SEEDS},
        "instrument": instrument_block(),
    }


def dumps(ledger: dict) -> str:
    return json.dumps(ledger, indent=1, sort_keys=True) + "\n"


def load() -> dict:
    with open(LEDGER) as fh:
        return json.load(fh)


def diff(golden, fresh, path: str = "") -> list:
    """``path: golden != fresh`` for every leaf that differs."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        out = []
        for key in sorted(set(golden) | set(fresh)):
            where = f"{path}.{key}" if path else key
            if key not in fresh or key not in golden:
                out.append(f"{where}: only in "
                           f"{'golden' if key in golden else 'fresh'}")
            else:
                out += diff(golden[key], fresh[key], where)
        return out
    return [] if golden == fresh else [f"{path}: {golden!r} != {fresh!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate the ledger")
    mode.add_argument("--check", action="store_true",
                      help="compare a fresh ledger with the checked-in one")
    mode.add_argument("--instrument", action="store_true",
                      help="print the instrument block as JSON")
    args = parser.parse_args(argv)
    if args.instrument:
        sys.path.insert(1, str(ROOT / "src"))
        print(json.dumps(instrument()))
        return 0
    fresh = build()
    if args.write:
        LEDGER.parent.mkdir(exist_ok=True)
        LEDGER.write_text(dumps(fresh))
        print(f"wrote {LEDGER.relative_to(ROOT)}")
        return 0
    differences = diff(load(), fresh)
    for line in differences:
        print(f"MOVED {line}")
    print(f"sim ledger: {len(differences)} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload, and the metrics derived from passes.

Phases of a pass: set-up (world build, deploy, settle) -> warm-up (the
first 2 % of the ops, so first-touch codegen is paid; the wire is
recorded here for the drills) -> ``gc.collect()`` -> measured window
(GC left enabled) -> verification.  End-to-end metrics come only from
an untraced pass; a second, traced pass of the same workload and seed
gives the per-layer numbers.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import statistics

from repro.orb import codegen

from spine import drills
from spine.measure import Window, percentile, rss_mb, weighted_percentile
from spine.metrics import ESTIMATED_LAYERS, LAYERS
from spine.trace import ORB_MARSHAL_SPANS, Tracer, patch_targets
from spine.workloads import make

#: program counters read as deltas over the window.
COUNTERS = (
    "net.messages", "net.bytes", "net.logical", "net.local", "net.hops",
    "orb.requests", "orb.dispatches", "orb.oneways", "orb.replies",
    "orb.timeouts", "orb.shed", "orb.bad_messages",
    "orb.pipeline.flushes", "orb.pipeline.frames",
    "bus.published", "bus.delivered", "bus.dropped",
    "bus.remote.batches", "bus.remote.events",
    "federation.rounds", "federation.lookup.msgs",
    "federation.lookup.failover", "federation.lookup.ring_fallback",
    "federation.lookup.flood_fallback", "resolver.reused_running",
    "supervisor.recoveries", "supervisor.promotions", "supervisor.stranded",
)


def run_pass(name: str, seed: int, seconds: float, *, traced: bool = False,
             record_wire: bool = False, profile: bool = False,
             on_ready=None) -> dict:
    """Run one pass; returns its raw record (JSON-friendly, plus the
    ``tracer`` / ``wire`` / ``workload`` objects under ``_``-keys)."""
    tracer = Tracer()
    if traced:
        # Installed before set-up so bound methods captured there are
        # the wrapped ones; recording is gated to the window.
        tracer.install(patch_targets())
    try:
        workload = make(name, seed, seconds, tracer)
        workload.setup()
        wire = []
        if record_wire:
            with drills.WireRecorder(workload.network) as recorder:
                workload.warmup()
            wire = recorder.messages
        else:
            workload.warmup()
        gc.collect()
        if on_ready is not None:
            on_ready()

        window = Window(workload.ops)
        workload.counters.mark()
        codec_before = codegen.stats_snapshot()
        events_before = workload.kernel_events()
        spans_before = workload.obs_spans()
        sim_before = workload.env.now
        rss_before = rss_mb()
        profiler = cProfile.Profile() if profile else None
        tracer.on = traced
        if profiler is not None:
            profiler.enable()
        workload.run(window)
        if profiler is not None:
            profiler.disable()
        tracer.on = False
        rss_after = rss_mb()
    finally:
        tracer.remove()

    codec_after = codegen.stats_snapshot()
    latencies = workload.latencies
    weighted = bool(latencies) and isinstance(latencies[0], tuple)
    pct = weighted_percentile if weighted else percentile
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "traced": traced, "ops": workload.ops,
        "warm_ops": workload.warm_ops,
        "attempted": workload.attempted, "failed": workload.failed,
        "retried": workload.retried,
        "wall_s": window.wall_s,
        "sim_s": workload.env.now - sim_before,
        "chunk_walls_s": window.chunk_walls,
        "chunk_quartiles_s": list(window.chunk_quartiles()),
        "chunk_iqr_ratio": window.chunk_iqr_ratio(),
        "ops_per_s": window.ops_per_s(),
        "median_chunk_ops_per_s": window.median_chunk_ops_per_s(),
        "op_wall_us_p50": percentile(window.op_walls, 50) * 1e6,
        "op_wall_us_p99": percentile(window.op_walls, 99) * 1e6,
        "sim_latency_ms_p50": pct(latencies, 50) * 1e3,
        "sim_latency_ms_p99": pct(latencies, 99) * 1e3,
        "latency_samples": (sum(w for _l, w in latencies) if weighted
                            else len(latencies)),
        "kernel_events": workload.kernel_events() - events_before,
        "obs_spans": workload.obs_spans() - spans_before,
        "rss_before_mb": rss_before, "rss_after_mb": rss_after,
        "deploy_wall_s": workload.deploy_wall_s,
        "counters": {name: workload.counters.delta(name)
                     for name in COUNTERS},
        "net_dropped": workload.counters.delta_prefix("net.dropped."),
        "codec": {key: codec_after[key] - codec_before[key]
                  for key in ("encode_calls", "decode_calls",
                              "cache_misses")},
        "problems": workload.verify(),
        "_tracer": tracer, "_wire": wire, "_workload": workload,
    }
    if profiler is not None:
        record["_profile"] = pstats.Stats(profiler)
    return record


def public(record: dict) -> dict:
    """*record* without its in-memory objects."""
    return {k: v for k, v in record.items() if not k.startswith("_")}


# -- end-to-end ------------------------------------------------------------

def end_to_end(record: dict, setup_samples: list) -> dict:
    """The eight end-to-end values from an **untraced** pass."""
    completed = max(1, record["ops"] - min(record["failed"], record["ops"]))
    counters = record["counters"]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": record["ops_per_s"],
        "sim_latency_ms_p50": record["sim_latency_ms_p50"],
        "sim_latency_ms_p99": record["sim_latency_ms_p99"],
        "wire_bytes_per_op": counters["net.bytes"] / completed,
        "wire_msgs_per_op": counters["net.messages"] / completed,
        "success_rate": ((record["attempted"] - record["failed"])
                         / max(1, record["attempted"])),
        "peak_rss_mb": record["rss_after_mb"],
    }


# -- per-layer -------------------------------------------------------------

def run_drills(workload_cls, wire: list, budget_s: float) -> dict:
    """Every drill, on the corpus captured from the warm-up of a pass
    of *workload_cls* (whose world should be freed by now: a large live
    heap makes every collection during a drill slower)."""
    corpus = drills.build_corpus(wire, workload_cls.operations(),
                                 workload_cls.marshal_once)
    kernel_us = drills.drill_kernel(budget_s)
    return {
        "kernel_us": kernel_us,
        "network_us": drills.drill_network(wire, workload_cls.topology(),
                                           budget_s),
        "giop": drills.drill_giop(corpus, budget_s),
        "codec": drills.drill_codec(corpus, budget_s),
        "orb": drills.drill_orb(kernel_us, 2.0 * budget_s),
        "events_us": drills.drill_events(budget_s),
        "registry": drills.drill_registry(budget_s),
        "corpus": {"wire_messages": len(wire), "frames": corpus.n_frames,
                   "request_values": len(corpus.request_values),
                   "reply_values": len(corpus.reply_values)},
    }


def layer_shares(traced: dict, drilled: dict) -> dict:
    """``layer -> {"share", "source"}`` of the traced window's wall.

    Span-traced layers: self time of their spans.  Estimated layers:
    count x drill cost.  Argument marshalling happens inside the traced
    ORB entry points through pre-bound codec handles, so its estimate
    is taken out of ``orb.core`` and reported under ``orb.codec``.
    """
    tracer = traced["_tracer"]
    window = traced["wall_s"]
    counters = traced["counters"]
    self_time = tracer.layer_self_time()
    codec = drilled["codec"]
    marshals = tracer.outermost_calls(ORB_MARSHAL_SPANS)
    marshal_s = marshals * codec["request_encode_us"] * 1e-6
    codec_s = (marshal_s
               + counters["orb.requests"] * codec["request_decode_us"] * 1e-6
               + counters["orb.replies"] * (codec["reply_encode_us"]
                                            + codec["reply_decode_us"]) * 1e-6)
    seconds = {
        "sim.kernel": traced["kernel_events"] * drilled["kernel_us"] * 1e-6,
        "sim.network": self_time.get("sim.network", 0.0),
        "orb.giop": (self_time.get("orb.giop", 0.0)
                     + counters["net.logical"]
                     * drilled["giop"]["decode_us"] * 1e-6),
        "orb.codec": codec_s,
        "orb.core": max(0.0, self_time.get("orb.core", 0.0) - marshal_s),
        "events": self_time.get("events", 0.0),
        "registry.federation": self_time.get("registry.federation", 0.0),
        "deployment": self_time.get("deployment", 0.0),
        "obs": self_time.get("obs", 0.0),
    }
    shares = {}
    for layer, spent in seconds.items():
        if layer in ESTIMATED_LAYERS:
            source = "estimated"
        elif layer == "orb.giop":
            source = "spans+estimated"     # encode traced, decode private
        else:
            source = "spans"
        shares[layer] = {"share": spent / window, "source": source}
    attributed = sum(entry["share"] for entry in shares.values())
    shares["driver.untraced"] = {"share": max(0.0, 1.0 - attributed),
                                 "source": "remainder"}
    return shares


def per_layer(untraced: dict, traced: dict, drilled: dict) -> tuple:
    """(metrics, shares): counts and host numbers from the untraced
    pass, shares from the traced one, costs from the drills."""
    ops = untraced["ops"]
    c = untraced["counters"]
    shares = layer_shares(traced, drilled)
    giop, codec, orb = drilled["giop"], drilled["codec"], drilled["orb"]
    registry = drilled["registry"]
    remote = max(1.0, c["net.messages"] - c["net.local"])
    attempts = untraced["attempted"] + untraced["retried"]
    out = {
        "driver.wall_s": untraced["wall_s"],
        "driver.sim_s": untraced["sim_s"],
        "driver.wall_s_per_sim_s": untraced["wall_s"] / untraced["sim_s"],
        "driver.op_wall_us_p50": untraced["op_wall_us_p50"],
        "driver.op_wall_us_p99": untraced["op_wall_us_p99"],
        "driver.median_chunk_ops_per_s": untraced["median_chunk_ops_per_s"],
        "driver.chunk_iqr_ratio": untraced["chunk_iqr_ratio"],
        "driver.trace_overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        "driver.untraced_share": shares["driver.untraced"]["share"],
        "driver.error_rate": ((untraced["failed"] + untraced["retried"])
                              / max(1, attempts)),
        "sim.kernel.events": untraced["kernel_events"],
        "sim.kernel.events_per_op": untraced["kernel_events"] / ops,
        "sim.kernel.drill_us_per_event": drilled["kernel_us"],
        "sim.network.messages": c["net.messages"],
        "sim.network.bytes": c["net.bytes"],
        "sim.network.hops_per_msg": c["net.hops"] / remote,
        "sim.network.dropped": untraced["net_dropped"],
        "sim.network.local_share": c["net.local"] / max(1.0,
                                                        c["net.messages"]),
        "sim.network.drill_us_per_send": drilled["network_us"],
        "orb.giop.frames": c["net.logical"],
        "orb.giop.frames_per_msg": c["net.logical"] / max(1.0,
                                                          c["net.messages"]),
        "orb.giop.drill_encode_request_us": giop["encode_request_us"],
        "orb.giop.drill_encode_reply_us": giop["encode_reply_us"],
        "orb.giop.drill_decode_us": giop["decode_us"],
        "orb.codec.encode_calls": untraced["codec"]["encode_calls"],
        "orb.codec.decode_calls": untraced["codec"]["decode_calls"],
        "orb.codec.codegen_cache_misses": untraced["codec"]["cache_misses"],
        "orb.codec.drill_encode_us": codec["encode_us"],
        "orb.codec.drill_decode_us": codec["decode_us"],
        "orb.codec.drill_any_roundtrip_us": codec["any_roundtrip_us"],
        "orb.codec.drill_MB_per_s": codec["MB_per_s"],
        "orb.core.requests": c["orb.requests"],
        "orb.core.dispatches": c["orb.dispatches"],
        "orb.core.oneways": c["orb.oneways"],
        "orb.core.replies": c["orb.replies"],
        "orb.core.timeouts": c["orb.timeouts"],
        "orb.core.shed": c["orb.shed"],
        "orb.core.bad_messages": c["orb.bad_messages"],
        "orb.core.pipeline_frames_per_flush":
            c["orb.pipeline.frames"] / max(1.0, c["orb.pipeline.flushes"]),
        "orb.core.drill_us_per_call": orb["us_per_call"],
        "orb.core.drill_self_us_per_call": orb["self_us_per_call"],
        "events.published": c["bus.published"],
        "events.delivered": c["bus.delivered"],
        "events.dropped": c["bus.dropped"],
        "events.remote_batches": c["bus.remote.batches"],
        "events.events_per_batch":
            c["bus.remote.events"] / max(1.0, c["bus.remote.batches"]),
        "events.drill_us_per_publish": drilled["events_us"],
        "registry.federation.rounds": c["federation.rounds"],
        "registry.federation.lookups": c["federation.lookup.msgs"],
        "registry.federation.failover": c["federation.lookup.failover"],
        "registry.federation.ring_fallback":
            c["federation.lookup.ring_fallback"],
        "registry.federation.flood_fallback":
            c["federation.lookup.flood_fallback"],
        "registry.federation.reused_running": c["resolver.reused_running"],
        "registry.federation.drill_ring_owners_us":
            registry["ring_owners_us"],
        "registry.federation.drill_record_apply_us":
            registry["record_apply_us"],
        "deployment.deploy_wall_s": untraced["deploy_wall_s"],
        "deployment.recoveries": c["supervisor.recoveries"],
        "deployment.promotions": c["supervisor.promotions"],
        "deployment.stranded": c["supervisor.stranded"],
        "obs.spans": untraced["obs_spans"],
        "obs.spans_per_op": untraced["obs_spans"] / ops,
        "obs.rss_mb_per_kop": ((untraced["rss_after_mb"]
                                - untraced["rss_before_mb"]) / ops * 1e3),
    }
    for layer in LAYERS[1:]:
        out[f"{layer}.share"] = shares[layer]["share"]
    return out, shares


# -- cProfile cross-check ----------------------------------------------------

_PROFILE_RULES = (
    ("sim/kernel.py", "sim.kernel"),
    ("sim/network.py", "sim.network"), ("sim/topology.py", "sim.network"),
    ("sim/faults.py", "sim.network"), ("networkx/", "sim.network"),
    ("orb/giop.py", "orb.giop"),
    ("orb/cdr.py", "orb.codec"), ("orb/compiled.py", "orb.codec"),
    ("orb/codegen.py", "orb.codec"), ("<codegen:", "orb.codec"),
    ("orb/typecodes.py", "orb.codec"),
    ("orb/services/events.py", "events"), ("node/events.py", "events"),
    ("repro/events/", "events"),
    ("repro/orb/", "orb.core"),
    ("repro/registry/", "registry.federation"),
    ("repro/deployment/", "deployment"), ("repro/container/", "deployment"),
    ("repro/obs/", "obs"), ("sim/stats.py", "obs"),
    ("benchmarks/spine/", "driver"),
)


def profile_shares(stats: pstats.Stats) -> dict:
    """tottime grouped by module path, as a share of all tottime: the
    cross-check ROADMAP 1(b) asks for beside the span/drill shares."""
    totals = {layer: 0.0 for layer in LAYERS}
    totals["other"] = 0.0
    for (filename, _line, _func), entry in stats.stats.items():
        tottime = entry[2]
        for needle, layer in _PROFILE_RULES:
            if needle in filename:
                totals[layer] += tottime
                break
        else:
            totals["other"] += tottime
    whole = sum(totals.values()) or 1.0
    return {layer: spent / whole for layer, spent in totals.items()}

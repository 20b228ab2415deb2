"""Every metric the spine reports, declared once.

``BENCHMARK.json`` at the repo root is generated from these tables
(``run.py --write-manifest``) and ``--selftest`` fails when the two
disagree.  ``BENCHMARK.json`` only has room for name, unit, direction
and bound; the rest of a declaration lives here and in README.md:

- ``kind`` — **host** (wall-clock of this machine, noisy) or **sim**
  (simulated time / counts of the deterministic simulation: exact for a
  seed, so a change meant only to speed the code up must not move it);
- ``layer`` — the ``repro`` module family the number belongs to;
- ``moves`` — the end-to-end metric and the workloads the number is
  expected to move (written before the first baseline was measured;
  later issues are held to these predictions).
"""

from __future__ import annotations

from dataclasses import dataclass

HOST = "host"
SIM = "sim"

CSCW = "cscw_session"
RPC = "rpc_mix"
FANOUT = "event_fanout"
CHURN = "registry_churn"
ALL = (CSCW, RPC, FANOUT, CHURN)


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str          # "closed" or "open"
    why: str


WORKLOADS = (
    Workload(CSCW, "closed",
             "the paper's Figure-2 whiteboard on the full chaos world; "
             "only workload where any/TypeCode codec, push channels, "
             "obs interceptors and the WAN all work"),
    Workload(RPC, "closed",
             "typed request/reply on a LAN star: generated codec, GIOP "
             "framing, ORB.invoke fast path and per-message kernel cost; "
             "bypasses any, channels, obs, WAN, registry"),
    Workload(FANOUT, "open",
             "EventBus batch + marshal-once fan-out + MSG_MULTI "
             "pipelining to 8 sinks at length; bypasses request/reply, "
             "registry and obs (throughput use of the event layer)"),
    Workload(CHURN, "open",
             "federated registry resolves on 256 hosts through owner "
             "kills and a WAN partition: ring, gossip, timers, multi-hop "
             "routing; bypasses CSCW, any and obs"),
)


#: Bounds are what ``BENCHMARK.json`` fixes for comparisons of medians
#: over runs with *different* seeds, so each covers three times the
#: across-seed, across-run spread measured on the reference box (the
#: contract caps a bound at 0.25).  A simulated number is exact for one
#: seed: for same-seed comparisons ``--compare`` demands equality.
@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    kind: str
    doc: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, HOST,
             "top of run.py to first measured op (imports, IDL compile, "
             "world build, deploy, settle, warm-up); median over fresh "
             "processes"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25, HOST,
             "ops per chunk over the fastest chunk's wall-time (20 chunks; "
             "see measure.py for why not the median)"),
    EndToEnd("sim_latency_ms_p50", "ms", "lower", 0.02, SIM,
             "median op latency in simulated time"),
    EndToEnd("sim_latency_ms_p99", "ms", "lower", 0.25, SIM,
             "99th percentile op latency in simulated time"),
    EndToEnd("wire_bytes_per_op", "B", "lower", 0.05, SIM,
             "net.bytes delta over completed ops"),
    EndToEnd("wire_msgs_per_op", "count", "lower", 0.20, SIM,
             "net.messages delta over completed ops"),
    EndToEnd("success_rate", "ratio", "higher", 0.002, SIM,
             "1 - error rate: ops that completed over ops attempted "
             "(the contract forbids a metric that reads 0, so the "
             "issue's error_rate is reported as its complement here and "
             "as driver.error_rate per layer)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, HOST,
             "ru_maxrss of the measuring process after the window"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    kind: str
    #: (end-to-end metric, workloads) the number is predicted to move.
    moves: tuple


def _m(name, unit, better, kind, metric="ops_per_s", on=ALL):
    return PerLayer(name, unit, better, kind, (metric, tuple(on)))


PER_LAYER = (
    # -- driver: the benchmark's own view of the window ------------------
    _m("driver.wall_s", "s", "lower", HOST),
    _m("driver.sim_s", "s", "lower", SIM, "sim_latency_ms_p50"),
    _m("driver.wall_s_per_sim_s", "ratio", "lower", HOST),
    _m("driver.op_wall_us_p50", "us", "lower", HOST, on=(CSCW, RPC)),
    _m("driver.op_wall_us_p99", "us", "lower", HOST, on=(CSCW, RPC)),
    _m("driver.median_chunk_ops_per_s", "1/s", "higher", HOST),
    _m("driver.chunk_iqr_ratio", "ratio", "lower", HOST),
    _m("driver.trace_overhead_ratio", "ratio", "lower", HOST),
    _m("driver.untraced_share", "ratio", "lower", HOST),
    _m("driver.error_rate", "ratio", "lower", SIM, "success_rate",
       (CSCW, CHURN)),
    # -- sim.kernel ------------------------------------------------------
    _m("sim.kernel.events", "count", "lower", SIM),
    _m("sim.kernel.events_per_op", "count", "lower", SIM,
       on=(CHURN, CSCW, RPC, FANOUT)),
    _m("sim.kernel.drill_us_per_event", "us", "lower", HOST,
       on=(CHURN, CSCW, RPC, FANOUT)),
    _m("sim.kernel.share", "ratio", "lower", HOST),
    # -- sim.network -----------------------------------------------------
    _m("sim.network.messages", "count", "lower", SIM, "wire_msgs_per_op"),
    _m("sim.network.bytes", "B", "lower", SIM, "wire_bytes_per_op"),
    _m("sim.network.hops_per_msg", "count", "lower", SIM,
       on=(RPC, CHURN)),
    _m("sim.network.dropped", "count", "lower", SIM, "success_rate",
       (CHURN,)),
    _m("sim.network.local_share", "ratio", "higher", SIM,
       "wire_msgs_per_op", (CSCW, CHURN)),
    _m("sim.network.drill_us_per_send", "us", "lower", HOST,
       on=(RPC, CHURN)),
    _m("sim.network.share", "ratio", "lower", HOST, on=(RPC, CHURN)),
    # -- orb.giop --------------------------------------------------------
    _m("orb.giop.frames", "count", "lower", SIM),
    _m("orb.giop.frames_per_msg", "ratio", "higher", SIM,
       "wire_msgs_per_op", (FANOUT,)),
    _m("orb.giop.drill_encode_request_us", "us", "lower", HOST,
       on=(RPC, CSCW)),
    _m("orb.giop.drill_encode_reply_us", "us", "lower", HOST,
       on=(RPC, CSCW)),
    _m("orb.giop.drill_decode_us", "us", "lower", HOST, on=(RPC, CSCW)),
    _m("orb.giop.share", "ratio", "lower", HOST, on=(RPC, CSCW)),
    # -- orb.codec -------------------------------------------------------
    _m("orb.codec.encode_calls", "count", "lower", SIM, on=(RPC,)),
    _m("orb.codec.decode_calls", "count", "lower", SIM, on=(RPC,)),
    _m("orb.codec.codegen_cache_misses", "count", "lower", SIM,
       "setup_s", ALL),
    _m("orb.codec.drill_encode_us", "us", "lower", HOST, on=(RPC,)),
    _m("orb.codec.drill_decode_us", "us", "lower", HOST, on=(RPC,)),
    _m("orb.codec.drill_any_roundtrip_us", "us", "lower", HOST,
       on=(CSCW,)),
    _m("orb.codec.drill_MB_per_s", "MB/s", "higher", HOST,
       on=(RPC, FANOUT)),
    _m("orb.codec.share", "ratio", "lower", HOST, on=(RPC, CSCW, FANOUT)),
    # -- orb.core --------------------------------------------------------
    _m("orb.core.requests", "count", "lower", SIM),
    _m("orb.core.dispatches", "count", "lower", SIM),
    _m("orb.core.oneways", "count", "lower", SIM, on=(FANOUT, CSCW)),
    _m("orb.core.replies", "count", "lower", SIM, on=(RPC, CSCW)),
    _m("orb.core.timeouts", "count", "lower", SIM, "success_rate",
       (CHURN,)),
    _m("orb.core.shed", "count", "lower", SIM, "success_rate", (CHURN,)),
    _m("orb.core.bad_messages", "count", "lower", SIM, "success_rate",
       ALL),
    _m("orb.core.pipeline_frames_per_flush", "count", "higher", SIM,
       "wire_msgs_per_op", (FANOUT,)),
    _m("orb.core.drill_us_per_call", "us", "lower", HOST, on=(RPC, CSCW)),
    _m("orb.core.drill_self_us_per_call", "us", "lower", HOST,
       on=(RPC, CSCW)),
    _m("orb.core.share", "ratio", "lower", HOST, on=(RPC, CSCW)),
    # -- events ----------------------------------------------------------
    _m("events.published", "count", "lower", SIM, on=(FANOUT,)),
    _m("events.delivered", "count", "lower", SIM, on=(FANOUT,)),
    _m("events.dropped", "count", "lower", SIM, "success_rate",
       (FANOUT,)),
    _m("events.remote_batches", "count", "lower", SIM,
       "wire_msgs_per_op", (FANOUT,)),
    _m("events.events_per_batch", "count", "higher", SIM,
       "wire_msgs_per_op", (FANOUT,)),
    _m("events.drill_us_per_publish", "us", "lower", HOST, on=(FANOUT,)),
    _m("events.share", "ratio", "lower", HOST, on=(FANOUT,)),
    # -- registry.federation ---------------------------------------------
    _m("registry.federation.rounds", "count", "lower", SIM, on=(CHURN,)),
    _m("registry.federation.lookups", "count", "lower", SIM,
       "sim_latency_ms_p99", (CHURN,)),
    _m("registry.federation.failover", "count", "lower", SIM,
       "sim_latency_ms_p99", (CHURN,)),
    _m("registry.federation.ring_fallback", "count", "lower", SIM,
       "sim_latency_ms_p99", (CHURN,)),
    _m("registry.federation.flood_fallback", "count", "lower", SIM,
       "success_rate", (CHURN,)),
    _m("registry.federation.reused_running", "count", "higher", SIM,
       "sim_latency_ms_p50", (CHURN,)),
    _m("registry.federation.drill_ring_owners_us", "us", "lower", HOST,
       on=(CHURN,)),
    _m("registry.federation.drill_record_apply_us", "us", "lower", HOST,
       on=(CHURN,)),
    _m("registry.federation.share", "ratio", "lower", HOST, on=(CHURN,)),
    # -- deployment ------------------------------------------------------
    _m("deployment.deploy_wall_s", "s", "lower", HOST, "setup_s",
       (CSCW,)),
    _m("deployment.recoveries", "count", "lower", SIM, "success_rate",
       (CSCW,)),
    _m("deployment.promotions", "count", "lower", SIM, "success_rate",
       (CSCW,)),
    _m("deployment.stranded", "count", "lower", SIM, "success_rate",
       (CSCW,)),
    _m("deployment.share", "ratio", "lower", HOST, on=(CSCW,)),
    # -- obs -------------------------------------------------------------
    _m("obs.spans", "count", "lower", SIM, "peak_rss_mb", (CSCW,)),
    _m("obs.spans_per_op", "count", "lower", SIM, "peak_rss_mb", (CSCW,)),
    _m("obs.rss_mb_per_kop", "MB", "lower", HOST, "peak_rss_mb", (CSCW,)),
    _m("obs.share", "ratio", "lower", HOST, on=(CSCW,)),
)

#: Layers in report order; ``driver`` is the benchmark itself.
LAYERS = ("driver", "sim.kernel", "sim.network", "orb.giop", "orb.codec",
          "orb.core", "events", "registry.federation", "deployment", "obs")

#: Layers whose ``share`` is count x drill cost, not span self-time: the
#: hot path reaches them through pre-bound handles or private names
#: the benchmark does not patch.
ESTIMATED_LAYERS = ("sim.kernel", "orb.codec")

SIM_END_TO_END = tuple(m.name for m in END_TO_END if m.kind == SIM)

#: How long one measured window lasts (``--seconds`` default).
RUN_SECONDS = 8


def manifest() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/spine/run.py"],
        "paths": ["benchmarks/spine"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }

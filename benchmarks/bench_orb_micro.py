"""C1 — "Simplicity and performance ... it must be lightweight" (§2 R1).

ORB microbenchmarks: CDR marshalling throughput, the round trip of the
whiteboard's stroke ``any``, end-to-end invocation cost (wall time per
simulated call), and the simulated-time latency of a LAN invocation as
argument size grows.
"""

import pytest

from _harness import report, stash
from repro.cscw.whiteboard import STROKE_TC
from repro.orb.cdr import Any, CDRDecoder, CDREncoder
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.typecodes import (
    sequence_tc,
    struct_tc,
    tc_double,
    tc_any,
    tc_long,
    tc_octetseq,
    tc_string,
)
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import SERVER, star

POINT = struct_tc("Point", [("x", tc_double), ("y", tc_double)])
SAMPLE_TC = struct_tc("Sample", [
    ("id", tc_long),
    ("name", tc_string),
    ("path", sequence_tc(POINT)),
])
SAMPLE = {
    "id": 42,
    "name": "trajectory-0042",
    "path": [{"x": float(i), "y": float(i) * 0.5} for i in range(16)],
}

ECHO = InterfaceDef("IDL:bench/Echo:1.0", "Echo", operations=[
    op("echo", [("s", SAMPLE_TC)], SAMPLE_TC),
    op("blob", [("b", tc_octetseq)], tc_octetseq),
])


class EchoServant(Servant):
    _interface = ECHO

    def echo(self, s):
        return s

    def blob(self, b):
        return b


def make_rig():
    env = Environment()
    net = Network(env, star(1, hub_profile=SERVER))
    server = ORB(env, net, "hub")
    client = ORB(env, net, "h0")
    ior = server.adapter("root").activate(EchoServant())
    return env, net, client, ior


def test_cdr_marshal_throughput(benchmark, capsys):
    """Marshal throughput on the production encode path.

    The ORB resolves one codec per operation and holds it (``_codec`` on
    the OperationDef), so the representative workload is the resolved
    plan handle, not a per-value ``encode_value`` lookup.  Throughput is
    taken from the fastest round: this box shows 2-3x wall-clock noise
    between identical runs, and the minimum is the standard noise-free
    estimator for a deterministic workload (the mean is reported too).
    """
    from repro.orb.compiled import get_plan

    plan_encode = get_plan(SAMPLE_TC).encode

    def marshal():
        enc = CDREncoder()
        for _ in range(100):
            plan_encode(enc, SAMPLE)
        return enc.getvalue()

    data = benchmark(marshal)
    per_value = len(data) // 100
    mbps = per_value * 100 / benchmark.stats["min"] / 1e6
    mbps_mean = per_value * 100 / benchmark.stats["mean"] / 1e6
    report(capsys, "C1a: CDR marshalling", ["metric", "value"], [
        ["encoded size (struct w/ 16-point path)", f"{per_value} B"],
        ["throughput (fastest round)", f"{mbps:.1f} MB/s"],
        ["throughput (mean)", f"{mbps_mean:.1f} MB/s"],
    ])
    stash(benchmark, encoded_bytes=per_value, mb_per_s=mbps,
          mb_per_s_mean=mbps_mean)


def test_cdr_marshal_interpreter_reference(benchmark, capsys):
    """Same workload through the reference TypeCode interpreter, for an
    in-run comparison against the compiled-plan numbers above."""
    from repro.orb.cdr import encode_value_interp

    def marshal():
        enc = CDREncoder()
        for _ in range(100):
            encode_value_interp(enc, SAMPLE_TC, SAMPLE)
        return enc.getvalue()

    data = benchmark(marshal)
    per_value = len(data) // 100
    mbps = per_value * 100 / benchmark.stats["mean"] / 1e6
    report(capsys, "C1a-ref: CDR marshalling (interpreter)",
           ["metric", "value"],
           [["throughput", f"{mbps:.1f} MB/s"]],
           note="reference path; compare with C1a compiled plans")
    stash(benchmark, mb_per_s=mbps)


def test_cdr_unmarshal_throughput(benchmark, capsys):
    """Unmarshal throughput on the production decode path (see the
    marshal test above for why the plan handle and the fastest round)."""
    from repro.orb import codegen
    from repro.orb.compiled import get_plan

    plan = get_plan(SAMPLE_TC)
    plan_decode = plan.decode
    enc = CDREncoder()
    for _ in range(100):
        plan.encode(enc, SAMPLE)
    wire = enc.getvalue()

    def unmarshal():
        dec = CDRDecoder(wire)
        return [plan_decode(dec) for _ in range(100)]

    before = codegen.stats_snapshot()
    values = benchmark(unmarshal)
    after = codegen.stats_snapshot()
    assert values[0] == SAMPLE
    mbps = len(wire) / benchmark.stats["min"] / 1e6
    mbps_mean = len(wire) / benchmark.stats["mean"] / 1e6
    report(capsys, "C1a: CDR unmarshalling", ["metric", "value"], [
        ["throughput (fastest round)", f"{mbps:.1f} MB/s"],
        ["throughput (mean)", f"{mbps_mean:.1f} MB/s"],
        ["codegen decode calls", str(after["decode_calls"]
                                     - before["decode_calls"])],
    ])
    stash(benchmark, mb_per_s=mbps, mb_per_s_mean=mbps_mean,
          codegen_decode_calls=after["decode_calls"] - before["decode_calls"])


def test_any_stroke_roundtrip(benchmark, capsys):
    """One whiteboard stroke pushed as an ``any`` (paper section 2.1.2)
    and decoded again — what ``cscw_session`` does about seven times per
    stroke.  After the first value of a type the TypeCode costs an
    append on the way out and a dict probe on the way in
    (``codegen.stats`` ``any_tc_hits``), so this is value work plus the
    fixed call-out."""
    from repro.orb import codegen
    from repro.orb.compiled import get_plan

    stroke = Any(STROKE_TC, {"author": "user03", "x0": 12.5, "y0": 40.25,
                             "x1": 310.0, "y1": 88.75, "color": "crimson"})
    plan = get_plan(tc_any)
    encode, decode = plan.encode, plan.decode

    def round_trips():
        out = None
        for _ in range(100):
            enc = CDREncoder()
            encode(enc, stroke)
            out = decode(CDRDecoder(enc.getvalue()))
        return out

    before = codegen.stats_snapshot()
    assert benchmark(round_trips) == stroke
    after = codegen.stats_snapshot()
    us = benchmark.stats["min"] / 100 * 1e6
    us_mean = benchmark.stats["mean"] / 100 * 1e6
    enc = CDREncoder()
    encode(enc, stroke)
    report(capsys, "C1d: stroke any round trip", ["metric", "value"], [
        ["encoded size (TypeCode + stroke)", f"{len(enc)} B"],
        ["round trip (fastest round)", f"{us:.2f} us"],
        ["round trip (mean)", f"{us_mean:.2f} us"],
        ["TypeCode index misses", str(after["any_tc_misses"]
                                      - before["any_tc_misses"])],
    ])
    stash(benchmark, encoded_bytes=len(enc), any_roundtrip_us=us,
          any_roundtrip_us_mean=us_mean,
          any_tc_misses=after["any_tc_misses"] - before["any_tc_misses"])


def test_invocation_wall_cost(benchmark, capsys):
    """Wall-clock cost per simulated invocation (impl overhead): one arm
    between two hosts, one to an object of the caller's own ORB."""
    import gc
    import time

    from repro.orb import codegen

    env, net, client, ior = make_rig()
    stub = client.stub(ior, ECHO)
    local_stub = client.stub(
        client.adapter("root").activate(EchoServant()), ECHO)

    def do_calls():
        for _ in range(50):
            client.sync(stub.echo(SAMPLE))

    def do_local_calls():
        for _ in range(50):
            client.sync(local_stub.echo(SAMPLE))

    before = codegen.stats_snapshot()
    # Many short rounds and min-of-rounds for the headline number: the
    # box's wall-clock noise between identical rounds exceeds 2x, and
    # the fastest round is the reproducible cost of the code itself.
    # GC is paused across the rounds so a gen-0 sweep landing inside a
    # round doesn't mask the per-call cost being measured.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        benchmark.pedantic(do_calls, rounds=25, iterations=1,
                           warmup_rounds=2)
        after = codegen.stats_snapshot()
        # The collocated arm by hand, in the same shape (the fixture
        # times one function per test): 2 warm-up rounds, then 25.
        do_local_calls()
        do_local_calls()
        local_rounds = []
        for _ in range(25):
            start = time.perf_counter()
            do_local_calls()
            local_rounds.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    per_call_us = benchmark.stats["min"] / 50 * 1e6
    per_call_us_mean = benchmark.stats["mean"] / 50 * 1e6
    per_call_us_local = min(local_rounds) / 50 * 1e6
    per_call_us_local_mean = sum(local_rounds) / len(local_rounds) / 50 * 1e6
    report(capsys, "C1b: invocation implementation cost",
           ["metric", "two hosts", "same ORB"],
           [["wall time per call (fastest round)", f"{per_call_us:.0f} us",
             f"{per_call_us_local:.0f} us"],
            ["wall time per call (mean)", f"{per_call_us_mean:.0f} us",
             f"{per_call_us_local_mean:.0f} us"]])
    stash(benchmark, per_call_us=per_call_us,
          per_call_us_mean=per_call_us_mean,
          per_call_us_local=per_call_us_local,
          per_call_us_local_mean=per_call_us_local_mean,
          codegen_cache_hits=after["cache_hits"] - before["cache_hits"],
          codegen_cache_misses=(after["cache_misses"]
                                - before["cache_misses"]),
          codegen_encode_calls=after["encode_calls"] - before["encode_calls"],
          codegen_decode_calls=after["decode_calls"] - before["decode_calls"])


def test_invocation_sim_latency(benchmark, capsys):
    """Simulated LAN latency per call vs. payload size."""
    rows = []
    for size in (0, 1_000, 10_000, 100_000):
        env, net, client, ior = make_rig()
        stub = client.stub(ior, ECHO)
        t0 = env.now
        client.sync(stub.blob(b"x" * size))
        rows.append([f"{size} B", f"{(env.now - t0) * 1000:.3f} ms"])

    def run_one():
        env, net, client, ior = make_rig()
        client.sync(client.stub(ior, ECHO).blob(b"x" * 1000))
        return env.now

    sim_latency = benchmark(run_one)
    report(capsys, "C1c: simulated LAN invocation latency vs payload",
           ["payload", "round-trip (sim)"], rows,
           note="100 Mb/s LAN, request+reply both cross the wire")
    stash(benchmark, sim_latency_1k=sim_latency)

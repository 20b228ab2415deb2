"""C1-gate — codec/dispatch fast-path floor (§2 R1, "lightweight").

Assertion-only guard wired into ``make check``: it verifies that the
generated codecs are actually engaged on the invocation path (they
handle the request/reply bodies, ``any`` and object references
included, with no generation error) and that marshalling and
invocation cost have not regressed past conservative floors.

The floors are deliberately loose — this box shows 2-3x wall-clock
noise between identical runs, so the gate sits well below the quiet
numbers recorded in ``BENCH_orb.json`` (marshal ~120 MB/s, invocation
~45 us/call) but far above the interpreter-era baseline (2.5 MB/s,
575 us/call).  A real regression (a generation error, the
plan cache thrashing, the fast dispatch path falling back to kernel
processes) lands an order of magnitude away from either side of the
gate, so flakiness and false confidence are both off the table.

Run ``python benchmarks/bench_orb_floor.py --selftest``.
"""

import time

from bench_orb_micro import ECHO, SAMPLE, SAMPLE_TC, make_rig
from repro.orb import codegen
from repro.orb.cdr import CDREncoder
from repro.orb.compiled import get_plan
from repro.orb.typecodes import tc_any, tc_objref

#: Conservative lower bounds; see module docstring for the rationale.
MARSHAL_FLOOR_MB_S = 20.0
INVOCATION_CEIL_US = 250.0


def _best_of(fn, repeats: int = 10) -> float:
    """Fastest CPU-time of *repeats* runs of ``fn`` — the noise-robust
    estimator for a deterministic workload on a loaded box."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        t1 = time.process_time()
        best = min(best, t1 - t0)
    return best


def selftest() -> int:
    # One tier: the three plans resolve (generation failing raises
    # INTERNAL) and no generation error was booked.
    plan = get_plan(SAMPLE_TC)
    get_plan(tc_any), get_plan(tc_objref)
    if codegen.stats["errors"]:
        print(f"FAIL: {codegen.stats['errors']} codec generation error(s)")
        return 1

    # -- marshal floor ---------------------------------------------------
    loops = 300
    enc = CDREncoder()
    plan.encode(enc, SAMPLE)
    per_value = len(enc.getvalue())
    plan_encode = plan.encode

    def marshal():
        e = CDREncoder()
        for _ in range(loops):
            plan_encode(e, SAMPLE)

    best = _best_of(marshal)
    mbps = per_value * loops / best / 1e6
    if mbps < MARSHAL_FLOOR_MB_S:
        print(f"FAIL: CDR marshal {mbps:.1f} MB/s below floor "
              f"{MARSHAL_FLOOR_MB_S} MB/s")
        return 1

    # -- invocation ceiling + codegen engagement -------------------------
    env, net, client, ior = make_rig()
    stub = client.stub(ior, ECHO)
    sync = client.sync
    before = codegen.stats_snapshot()
    calls = 100

    def invoke_batch():
        for _ in range(calls):
            sync(stub.echo(SAMPLE))

    invoke_batch()  # warm caches outside the measurement
    per_call_us = _best_of(invoke_batch) / calls * 1e6
    after = codegen.stats_snapshot()
    enc_calls = after["encode_calls"] - before["encode_calls"]
    dec_calls = after["decode_calls"] - before["decode_calls"]
    if enc_calls <= 0 or dec_calls <= 0:
        print(f"FAIL: generated codecs not engaged on the invocation "
              f"path (encode_calls={enc_calls}, decode_calls={dec_calls})")
        return 1
    if per_call_us > INVOCATION_CEIL_US:
        print(f"FAIL: invocation {per_call_us:.1f} us/call above ceiling "
              f"{INVOCATION_CEIL_US} us")
        return 1
    if after["errors"]:
        print(f"FAIL: {after['errors']} codec generation error(s)")
        return 1

    print(f"bench_orb_floor selftest ok: marshal {mbps:.1f} MB/s "
          f"(floor {MARSHAL_FLOOR_MB_S}), invocation {per_call_us:.1f} "
          f"us/call (ceiling {INVOCATION_CEIL_US}), codegen "
          f"enc/dec calls {enc_calls}/{dec_calls}")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser()
    parser.add_argument("--selftest", action="store_true",
                        help="assert perf floors and codegen engagement")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    parser.error("pass --selftest (full reports live in bench_orb_micro.py)")

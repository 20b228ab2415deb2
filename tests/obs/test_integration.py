"""End-to-end: fault-injected call graph as one connected trace.

The ISSUE acceptance scenario: one simulated client -> node -> MRM call
with one injected failure+retry must produce a single trace with at
least three causally-linked spans, the crashed attempt marked failed.
"""

import pytest

from repro.orb.retry import RetryPolicy, invoke_with_retry
from repro.registry.mrm import MRM_IFACE, MrmAgent, MrmConfig
from repro.registry.softstate import SoftStateReporter
from repro.sim.topology import star
from repro.testing import SimRig


def test_crash_retry_call_yields_one_connected_trace():
    rig = SimRig(star(2), seed=4)
    hub = rig.observe()
    mrm = MrmAgent(rig.node("hub"), "g0",
                   config=MrmConfig(update_interval=2.0))
    SoftStateReporter(rig.node("h1"), [mrm.ior], mrm.config, phase=0.3)

    query_op = MRM_IFACE.operations["member_hosts"]
    outcome = {}

    def client():
        # crash the MRM host mid-flight: the first attempt times out,
        # the host comes back, the retry succeeds.
        yield rig.env.timeout(1.0)
        value = yield from invoke_with_retry(
            rig.node("h0").orb, mrm.ior, query_op, (),
            policy=RetryPolicy(attempts=3, timeout=1.0, backoff=0.5,
                               jitter=False))
        outcome["members"] = value

    def chaos():
        # the MRM host is dark across the client's first attempt
        # (t=1.0..2.0); it is back up in time for h1's t=2.3 report,
        # which repopulates the member table before the t=2.5 retry.
        yield rig.env.timeout(0.8)
        rig.topology.set_host_state("hub", alive=False)
        yield rig.env.timeout(1.2)
        rig.topology.set_host_state("hub", alive=True)

    rig.env.process(client())
    rig.env.process(chaos())
    rig.run(until=10.0)

    assert outcome["members"] == ["h1"]  # reporter registered h1

    # exactly one trace contains the retry envelope ...
    traces = hub.traces()
    retry_traces = {tid: spans for tid, spans in traces.items()
                    if any(s.name == "retry:member_hosts" for s in spans)}
    assert len(retry_traces) == 1
    (tid, spans), = retry_traces.items()

    # ... with >= 3 causally-linked spans (retry + failed attempt +
    # successful attempt + its server dispatch) ...
    assert len(spans) >= 4
    assert hub.tracer.trace_is_connected(tid)
    root = next(s for s in spans if s.parent_id is None)
    assert root.name == "retry:member_hosts"
    assert root.status == "ok"
    assert root.attrs["attempts"] == 2

    # ... where the crashed attempt is marked failed ...
    failed = [s for s in spans if s.kind == "client"
              and s.status == "error"]
    assert len(failed) == 1
    assert "TIMEOUT" in failed[0].error
    assert failed[0].parent_id == root.span_id

    # ... and the retried attempt reached the restarted server.
    served = [s for s in spans if s.kind == "server"]
    assert len(served) == 1
    assert served[0].status == "ok"
    assert served[0].host == "hub"

    # every other trace (reports etc.) is also internally consistent
    assert all(hub.tracer.trace_is_connected(t) for t in traces)
    # nothing left stranded in any pending table
    assert all(not orb._pending for orb in hub.orbs)


def test_obs_report_selftest_passes():
    import io

    from repro.tools.obs_report import main, run_selftest

    buf = io.StringIO()
    assert run_selftest(out=buf) == 0
    text = buf.getvalue()
    assert "selftest OK" in text
    assert "per-operation" in text
    assert main(["--selftest", "--json"]) == 0


def test_build_report_shape():
    from repro.tools.obs_report import build_report, render_text

    rig = SimRig(star(1), seed=1)
    hub = rig.observe()
    mrm = MrmAgent(rig.node("hub"), "g0",
                   config=MrmConfig(update_interval=2.0))
    SoftStateReporter(rig.node("h0"), [mrm.ior], mrm.config, phase=0.1)
    rig.run(until=5.0)

    rep = build_report(hub)
    entry = rep["operations"]["report"]
    assert entry["request_bytes"]["count"] >= 2
    assert "client" not in entry        # a oneway has no latency sample
    assert rep["meters"]["registry.soft"]["msgs"] >= 2
    assert rep["counters"]["oneways"] >= 2
    assert rep["traces"]["count"] >= 2
    assert rep["traces"]["connected"] == rep["traces"]["count"]
    text = render_text(rep)
    assert "registry.soft" in text
    assert "traces:" in text
    # JSON-safe
    import json
    json.dumps(rep)


def test_build_report_groups_traces_once():
    # Regression: connectivity used to be checked by scanning every
    # span once per trace — quadratic, about a minute on a spine-sized
    # run and ~1.5 s here.  One orphan parent must still be found.
    import time

    from repro.obs import Observability
    from repro.obs.trace import TraceContext
    from repro.sim.kernel import Environment
    from repro.sim.stats import MetricRegistry
    from repro.tools.obs_report import build_report

    hub = Observability(Environment(), MetricRegistry())
    tracer = hub.tracer
    for _ in range(2_000):
        parent = tracer.start_span("root")
        for _ in range(9):
            parent = tracer.start_span("child", parent=parent.context)
    tracer.start_span("orphan", parent=TraceContext(7, 10 ** 6))
    for span in tracer.spans:
        tracer.end_span(span)

    started = time.perf_counter()
    rep = build_report(hub)
    elapsed = time.perf_counter() - started
    assert rep["traces"] == {"count": 2_000, "spans": 20_001,
                             "open_spans": 0, "error_spans": 0,
                             "connected": 1_999, "largest": 11}
    assert elapsed < 0.5

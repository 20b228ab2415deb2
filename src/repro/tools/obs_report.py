"""Summarize an instrumented simulation: latency, bytes, retries, traces.

``build_report`` turns an :class:`~repro.obs.Observability` hub into a
plain dict (JSON-safe) with per-operation client/server latency
percentiles, request/reply sizes, error and retry counts, the
pending-reply-table depth profile, per-meter protocol totals, and a
trace summary.  ``render_text`` prints it as aligned tables — this is
what the EXPERIMENTS write-ups quote.

Run as a module for the embedded end-to-end check::

    PYTHONPATH=src python -m repro.tools.obs_report --selftest [--json]

The selftest builds a small fleet (soft-state reporters, an MRM, one
deliberately flaky call retried through ``invoke_with_retry``, one node
crash/restart) and asserts the observability invariants: percentile
monotonicity, connected traces, recorded retries, and a pending table
that ends empty — and the instrument's per-call budget, in simulated
quantities: an instrumented null call is 16 wire bytes, 0 kernel events
and 2 spans more than a bare one.  Exit status 0 on success, 1 on any
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Optional

from repro.obs import PENDING_DEPTH_GAUGE
from repro.obs.trace import spans_connected

#: histogram-name prefixes that the per-operation tables are built from.
_CLIENT_LATENCY = "orb.client.latency."
_SERVER_LATENCY = "orb.server.latency."
_REQUEST_BYTES = "orb.client.request_bytes."
_REPLY_BYTES = "orb.client.reply_bytes."


def _hist_stats(hist) -> dict[str, float]:
    return {
        "count": hist.count,
        "mean": hist.mean(),
        "p50": hist.percentile(50),
        "p95": hist.percentile(95),
        "p99": hist.percentile(99),
        "max": hist.max(),
    }


def build_report(hub) -> dict[str, Any]:
    """Aggregate one hub's metrics + traces into a JSON-safe dict."""
    metrics = hub.metrics
    histograms = metrics.histograms()
    counters = metrics.counters()

    operations: dict[str, dict[str, Any]] = {}

    def op_entry(operation: str) -> dict[str, Any]:
        entry = operations.get(operation)
        if entry is None:
            entry = operations[operation] = {}
        return entry

    for name, hist in histograms.items():
        if not hist.count:
            continue  # resolved for an operation, never recorded into
        if name.startswith(_CLIENT_LATENCY):
            op_entry(name[len(_CLIENT_LATENCY):])["client"] = \
                _hist_stats(hist)
        elif name.startswith(_SERVER_LATENCY):
            op_entry(name[len(_SERVER_LATENCY):])["server"] = \
                _hist_stats(hist)
        elif name.startswith(_REQUEST_BYTES):
            op_entry(name[len(_REQUEST_BYTES):])["request_bytes"] = \
                _hist_stats(hist)
        elif name.startswith(_REPLY_BYTES):
            op_entry(name[len(_REPLY_BYTES):])["reply_bytes"] = \
                _hist_stats(hist)
    for operation, entry in operations.items():
        entry["client_errors"] = counters.get(
            f"orb.client.errors.{operation}", 0.0)
        entry["server_errors"] = counters.get(
            f"orb.server.errors.{operation}", 0.0)
        entry["retries"] = counters.get(f"orb.retries.{operation}", 0.0)

    meters: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        if name.endswith(".msgs") or name.endswith(".bytes") \
                or name.endswith(".errors"):
            stem, _, field = name.rpartition(".")
            if stem.startswith("orb."):
                continue
            meters.setdefault(stem, {})[field] = value
    for stem, entry in meters.items():
        hist = histograms.get(f"{stem}.latency")
        if hist is not None and hist.count:
            entry["latency"] = _hist_stats(hist)

    depth = metrics.gauge(PENDING_DEPTH_GAUGE)
    sampled = depth.count > 0
    pending = {
        "samples": depth.count,
        "max": float(depth.max()) if sampled else 0.0,
        "mean": depth.mean() if sampled else 0.0,
        "last": float(depth.last) if sampled else 0.0,
    }

    traces = hub.traces()
    open_spans = sum(1 for s in hub.tracer.spans if not s.finished)
    error_spans = sum(1 for s in hub.tracer.spans if s.status == "error")
    connected = sum(1 for spans in traces.values() if spans_connected(spans))
    largest = max((len(spans) for spans in traces.values()), default=0)

    return {
        "clock": hub.env.now,
        "operations": dict(sorted(operations.items())),
        "meters": dict(sorted(meters.items())),
        "pending": pending,
        "counters": {
            "requests": counters.get("orb.requests", 0.0),
            "oneways": counters.get("orb.oneways", 0.0),
            "timeouts": counters.get("orb.timeouts", 0.0),
            "retries": counters.get("orb.retries", 0.0),
        },
        "traces": {
            "count": len(traces),
            "spans": len(hub.tracer.spans),
            "open_spans": open_spans,
            "error_spans": error_spans,
            "connected": connected,
            "largest": largest,
        },
    }


def _fmt(value: float, unit: str = "") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if unit == "s":
        if value < 1e-3:
            return f"{value * 1e6:.0f}us"
        if value < 1.0:
            return f"{value * 1e3:.2f}ms"
        return f"{value:.3f}s"
    if unit == "B":
        return f"{value:.0f}B"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return f"{value:.3g}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(str(headers[i])),
                  *(len(str(r[i])) for r in rows)) if rows
              else len(str(headers[i])) for i in range(len(headers))]
    def line(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    return [line(headers), line(["-" * w for w in widths])] + \
        [line(r) for r in rows]


def render_text(rep: dict[str, Any]) -> str:
    out: list[str] = []
    out.append(f"observability report @ t={rep['clock']:.3f}s")
    c = rep["counters"]
    out.append(f"requests={_fmt(c['requests'])} "
               f"oneways={_fmt(c['oneways'])} "
               f"timeouts={_fmt(c['timeouts'])} "
               f"retries={_fmt(c['retries'])}")
    out.append("")

    rows = []
    for operation, entry in rep["operations"].items():
        cl = entry.get("client")
        rq = entry.get("request_bytes")
        rows.append([
            operation,
            _fmt(cl["count"]) if cl else "-",
            _fmt(cl["p50"], "s") if cl else "-",
            _fmt(cl["p95"], "s") if cl else "-",
            _fmt(cl["p99"], "s") if cl else "-",
            _fmt(rq["mean"], "B") if rq else "-",
            _fmt(entry["retries"]),
            _fmt(entry["client_errors"] + entry["server_errors"]),
        ])
    if rows:
        out.append("per-operation (client view)")
        out.extend(_table(
            ["operation", "calls", "p50", "p95", "p99",
             "req bytes", "retries", "errors"], rows))
        out.append("")

    rows = []
    for stem, entry in rep["meters"].items():
        lat = entry.get("latency")
        rows.append([
            stem,
            _fmt(entry.get("msgs", 0.0)),
            _fmt(entry.get("bytes", 0.0), "B"),
            _fmt(lat["p50"], "s") if lat else "-",
            _fmt(lat["p99"], "s") if lat else "-",
            _fmt(entry.get("errors", 0.0)),
        ])
    if rows:
        out.append("protocol meters")
        out.extend(_table(
            ["meter", "msgs", "bytes", "p50", "p99", "errors"], rows))
        out.append("")

    p = rep["pending"]
    out.append(f"pending replies: max={_fmt(p['max'])} "
               f"mean={_fmt(p['mean'])} last={_fmt(p['last'])} "
               f"({_fmt(p['samples'])} samples)")
    t = rep["traces"]
    out.append(f"traces: {_fmt(t['count'])} "
               f"({_fmt(t['spans'])} spans, largest {_fmt(t['largest'])}, "
               f"{_fmt(t['connected'])} connected, "
               f"{_fmt(t['error_spans'])} error spans, "
               f"{_fmt(t['open_spans'])} still open)")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

def _selftest_scenario():
    """A small instrumented fleet exercising every obs code path."""
    from repro.orb.core import InterfaceDef, Servant, op
    from repro.orb.exceptions import TRANSIENT
    from repro.orb.retry import RetryPolicy, invoke_with_retry
    from repro.orb.typecodes import tc_long
    from repro.registry.mrm import MrmAgent, MrmConfig
    from repro.registry.softstate import SoftStateReporter
    from repro.sim.topology import star
    from repro.testing import SimRig

    rig = SimRig(star(3), seed=7)
    hub = rig.observe()

    mrm = MrmAgent(rig.node("hub"), "g0",
                   config=MrmConfig(update_interval=2.0))
    leaves = [f"h{i}" for i in range(3)]
    for i, leaf in enumerate(leaves):
        SoftStateReporter(rig.node(leaf), [mrm.ior], mrm.config,
                          phase=0.3 * (i + 1))

    flaky_iface = InterfaceDef("IDL:selftest/Flaky:1.0", "Flaky",
                               operations=[op("poke", [], tc_long)])

    class FlakyServant(Servant):
        _interface = flaky_iface
        failures_left = 1
        calls = 0

        def poke(self):
            FlakyServant.calls += 1
            if FlakyServant.failures_left > 0:
                FlakyServant.failures_left -= 1
                raise TRANSIENT("injected fault")
            return FlakyServant.calls

    ior = rig.node("hub").orb.adapter("selftest").activate(FlakyServant())

    def client():
        yield rig.env.timeout(1.0)
        result = yield from invoke_with_retry(
            rig.node("h0").orb, ior, flaky_iface.operations["poke"], (),
            policy=RetryPolicy(attempts=3, timeout=1.0, backoff=0.2))
        return result

    client_proc = rig.env.process(client())

    def churn():
        yield rig.env.timeout(5.0)
        rig.topology.set_host_state("h2", alive=False)
        yield rig.env.timeout(4.0)
        rig.topology.set_host_state("h2", alive=True)

    rig.env.process(churn())
    rig.run(until=16.0)
    return rig, hub, client_proc, mrm


def _null_call_cost(observe: bool) -> tuple:
    """(wire bytes, kernel events, spans) of a two-host null call — the
    second one made, so first-touch work is out of the way."""
    from repro.orb.core import InterfaceDef, Servant, op
    from repro.orb.typecodes import tc_long
    from repro.sim.topology import star
    from repro.testing import SimRig

    odef = op("null", [], tc_long, cpu_cost=0.0)

    class NullServant(Servant):
        _interface = InterfaceDef("IDL:selftest/Null:1.0", "Null", [odef])

        def null(self):
            return 0

    rig = SimRig(star(1), seed=7)
    spans = rig.observe().tracer.spans if observe else []
    ior = rig.node("hub").orb.adapter("selftest").activate(NullServant())
    totals = []
    for _ in range(2):
        rig.node("h0").orb.call(ior, odef, ())
        totals.append((rig.metrics.get("net.bytes"), rig.env._eid, len(spans)))
    return tuple(after - before for before, after in zip(*totals))


def run_selftest(as_json: bool = False,
                 out=sys.stdout) -> int:
    rig, hub, client_proc, mrm = _selftest_scenario()
    rep = build_report(hub)
    failures: list[str] = []

    def check(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    check(client_proc.value == 2, "retried call returned the wrong value")
    check(rep["counters"]["retries"] >= 1, "no retry was recorded")
    check(rep["operations"].get("poke", {}).get("retries", 0) >= 1,
          "per-operation retry counter missing")

    # every histogram's percentiles must be monotone and within range
    for name, hist in hub.metrics.histograms().items():
        if not hist.count:
            continue
        p50, p95, p99 = (hist.percentile(50), hist.percentile(95),
                         hist.percentile(99))
        check(p50 <= p95 <= p99,
              f"percentiles not monotone for {name}")
        check(hist.min() <= p50 and p99 <= hist.max(),
              f"percentiles outside observed range for {name}")

    traces = hub.traces()
    check(rep["traces"]["count"] > 0, "no traces were produced")
    check(rep["traces"]["connected"] == len(traces),
          "found a disconnected trace")
    retry_traces = [spans for spans in traces.values()
                    if any(s.name == "retry:poke" for s in spans)]
    check(len(retry_traces) == 1, "expected exactly one retry:poke trace")
    if retry_traces:
        spans = retry_traces[0]
        check(len(spans) >= 5,  # retry + 2x(call+serve)
              f"retry trace too small ({len(spans)} spans)")
        check(any(s.status == "error" for s in spans),
              "failed attempt not marked as an error span")
        check(any(s.kind == "server" and s.status == "ok" for s in spans),
              "no successful server span in the retry trace")

    check(rep["meters"].get("registry.soft", {}).get("msgs", 0) > 0,
          "soft-state reports not metered")
    check(all(len(orb._pending) == 0 for orb in hub.orbs),
          "pending-reply table not empty at end of run")
    check(rep["pending"]["max"] <= 2,
          "pending-reply table grew beyond the expected bound")
    check("h2" in mrm.members, "restarted node missing from MRM view")

    # The instrument's budget, in quantities that are exact for the
    # simulator: one trace slot (id, length, 8 data bytes) on the
    # request, no kernel event, a client and a server span.
    added = tuple(on - off for off, on in zip(_null_call_cost(False),
                                              _null_call_cost(True)))
    check(added == (16, 0, 2), f"an instrumented null call adds {added} "
          "(wire bytes, kernel events, spans); the budget is (16, 0, 2)")

    print(render_text(rep), file=out)
    if as_json:
        print(json.dumps(rep, indent=2, sort_keys=True), file=out)
    if failures:
        for failure in failures:
            print(f"SELFTEST FAIL: {failure}", file=out)
        return 1
    print("selftest OK", file=out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.obs_report",
        description="Render an observability report; --selftest runs an "
                    "embedded end-to-end scenario and checks invariants.")
    parser.add_argument("--selftest", action="store_true",
                        help="run the embedded scenario and verify it")
    parser.add_argument("--json", action="store_true",
                        help="also emit the report as JSON")
    ns = parser.parse_args(argv)
    if ns.selftest:
        return run_selftest(as_json=ns.json)
    parser.error("nothing to do (the module API is build_report/"
                 "render_text; from the CLI use --selftest)")
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Tracer and per-process context store units."""

import pytest

from repro.obs import trace
from repro.obs.trace import ContextStore, TraceContext, Tracer
from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.exceptions import TIMEOUT, TRANSIENT
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment
from repro.sim.topology import star
from repro.testing import SimRig

from tests.oracles.trace import trace_is_connected

NULL = op("null", [], tc_long, cpu_cost=0.0)
NOTE = op("note", [], oneway=True)
REFUSE = op("refuse", [], tc_long)
SLOW = op("slow", [], tc_long, cpu_cost=1e9)


class NullServant(Servant):
    _interface = InterfaceDef("IDL:test/Null:1.0", "Null",
                              [NULL, NOTE, REFUSE, SLOW])

    def null(self):
        return 0

    def note(self):
        pass

    def refuse(self):
        raise TRANSIENT("not now")

    def slow(self):
        return 0


class TestTracer:
    def test_root_span_starts_new_trace(self):
        env = Environment()
        tracer = Tracer(env)
        a = tracer.start_span("a")
        b = tracer.start_span("b")
        assert a.trace_id != b.trace_id
        assert a.parent_id is None
        assert a.span_id != b.span_id

    def test_child_span_joins_parent_trace(self):
        tracer = Tracer(Environment())
        a = tracer.start_span("a")
        b = tracer.start_span("b", parent=a.context)
        assert b.trace_id == a.trace_id
        assert b.parent_id == a.span_id

    def test_ids_are_deterministic(self):
        t1, t2 = Tracer(Environment()), Tracer(Environment())
        for t in (t1, t2):
            t.start_span("x")
            t.start_span("y")
        assert [s.span_id for s in t1.spans] == \
            [s.span_id for s in t2.spans]
        assert [s.trace_id for s in t1.spans] == \
            [s.trace_id for s in t2.spans]

    def test_span_timing_uses_sim_clock(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("op")

        def proc():
            yield env.timeout(2.5)
            tracer.end_span(span)

        env.run(until=env.process(proc()))
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.status == "ok"

    def test_end_span_is_idempotent(self):
        env = Environment()
        tracer = Tracer(env)
        span = tracer.start_span("op")
        tracer.end_span(span, status="error", error="TRANSIENT")
        tracer.end_span(span, status="ok")  # ignored
        assert span.status == "error"
        assert span.error == "TRANSIENT"

    def test_traces_grouping_and_connectivity(self):
        tracer = Tracer(Environment())
        a = tracer.start_span("a")
        tracer.start_span("b", parent=a.context)
        orphan = tracer.start_span("c", parent=TraceContext(
            a.trace_id, 999_999))  # parent id not in the trace
        traces = tracer.traces()
        assert len(traces[a.trace_id]) == 3
        assert not trace_is_connected(tracer, a.trace_id)
        assert orphan.trace_id == a.trace_id
        assert not trace_is_connected(tracer, 404)  # no such trace


class TestSpanWindow:
    def test_oldest_span_is_evicted(self, monkeypatch):
        monkeypatch.setattr(trace, "SPAN_WINDOW", 3)
        tracer = Tracer(Environment())
        spans = [tracer.start_span(str(i)) for i in range(5)]
        assert list(tracer.spans) == spans[2:]
        assert (tracer.started, tracer.evicted) == (5, 2)

    def test_call_legs_carry_sizes_not_attrs(self):
        rig = SimRig(star(1), seed=3)
        hub = rig.observe()
        ior = rig.node("hub").orb.adapter("t").activate(NullServant())
        rig.node("h0").orb.call(ior, NULL, ())
        client, server = hub.tracer.spans
        assert client.attrs is None and server.attrs is None
        assert client.bytes_out == server.bytes_in > 0
        assert client.bytes_in == server.bytes_out > 0

    def test_a_oneway_client_leg_has_no_reply_bytes(self):
        rig = SimRig(star(1), seed=3)
        hub = rig.observe()
        ior = rig.node("hub").orb.adapter("t").activate(NullServant())
        rig.node("h0").orb.send_oneway(ior, NOTE, ())
        rig.run(until=rig.env.now + 1.0)
        client, server = hub.tracer.spans
        assert client.bytes_in is None
        assert client.bytes_out == server.bytes_in > 0

    def test_a_oneway_server_leg_sends_no_reply_bytes(self):
        # No reply message, so None ("no message"), not a zero-byte one.
        rig = SimRig(star(1), seed=3)
        hub = rig.observe()
        ior = rig.node("hub").orb.adapter("t").activate(NullServant())
        rig.node("h0").orb.send_oneway(ior, NOTE, ())
        rig.run(until=rig.env.now + 1.0)
        _client, server = hub.tracer.spans
        assert server.status == "ok" and server.bytes_out is None

    def test_exception_reply_bytes_match_the_histogram(self):
        # The reply that carried the exception is a message like any
        # other: the client leg records its size, as the server leg and
        # orb.client.reply_bytes do.  A timeout's leg has none.
        rig = SimRig(star(1), seed=3)
        hub = rig.observe()
        ior = rig.node("hub").orb.adapter("t").activate(NullServant())
        client = rig.node("h0").orb

        def proc():
            with pytest.raises(TRANSIENT):
                yield client.invoke(ior, REFUSE, ())
            with pytest.raises(TIMEOUT):
                yield client.invoke(ior, SLOW, (), timeout=0.5)

        rig.run_process(proc())
        refused, served, late, _late_served = hub.tracer.spans
        assert (refused.status, late.status) == ("error", "error")
        assert refused.bytes_in == served.bytes_out > 0
        assert refused.bytes_in == hub.metrics.find_histogram(
            "orb.client.reply_bytes.refuse").total
        assert late.bytes_in is None

    def test_a_long_instrumented_run_holds_the_window(self, monkeypatch):
        # A monitored resource bound: 400 null calls start 800 spans and
        # the tracer retains the last 256 of them, not all.
        monkeypatch.setattr(trace, "SPAN_WINDOW", 256)
        rig = SimRig(star(1), seed=7)
        tracer = rig.observe().tracer
        ior = rig.node("hub").orb.adapter("t").activate(NullServant())
        setup = tracer.started
        for _ in range(400):
            rig.node("h0").orb.call(ior, NULL, ())
        assert len(tracer.spans) == 256
        assert tracer.started == 800 + setup
        assert tracer.evicted == tracer.started - 256


class TestContextStore:
    def test_current_follows_active_process(self):
        env = Environment()
        store = ContextStore()
        seen = {}

        def proc_a():
            store.bind(env.active_process, TraceContext(1, 1))
            yield env.timeout(1.0)
            seen["a"] = store.current(env)

        def proc_b():
            yield env.timeout(0.5)
            seen["b"] = store.current(env)  # must not see a's binding

        env.process(proc_a())
        env.process(proc_b())
        env.run(until=2.0)
        assert seen["a"] == TraceContext(1, 1)
        assert seen["b"] is None

    def test_bind_returns_previous_and_none_unbinds(self):
        env = Environment()
        store = ContextStore()
        result = {}

        def proc():
            me = env.active_process
            first = TraceContext(1, 1)
            assert store.bind(me, first) is None
            prev = store.bind(me, TraceContext(1, 2))
            result["prev"] = prev
            result["current"] = store.current(env)
            store.bind(me, prev)      # restore
            result["restored"] = store.current(env)
            store.bind(me, None)      # unbind entirely
            result["after_unbind"] = store.current(env)
            yield env.timeout(0)

        env.run(until=env.process(proc()))
        assert result["prev"] == TraceContext(1, 1)
        assert result["current"] == TraceContext(1, 2)
        assert result["restored"] == TraceContext(1, 1)
        assert result["after_unbind"] is None

    def test_outside_any_process(self):
        env = Environment()
        store = ContextStore()
        assert store.current(env) is None
        assert store.bind(None, TraceContext(1, 1)) is None

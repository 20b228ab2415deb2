"""Tracer and per-process context store units."""

from repro.obs.trace import ContextStore, TraceContext, Tracer
from repro.sim.kernel import Environment


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
        assert not tracer.trace_is_connected(a.trace_id)
        assert orphan.trace_id == a.trace_id
        assert not tracer.trace_is_connected(404)  # no such trace


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

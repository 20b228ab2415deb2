"""Interceptor hook ordering, trace propagation, metrics recording."""

import pytest

from repro.obs import Observability
from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.exceptions import TRANSIENT
from repro.orb.retry import RetryPolicy, invoke_with_retry
from repro.orb.typecodes import tc_long, tc_string
from repro.sim.topology import star
from repro.testing import SimRig

ECHO = InterfaceDef("IDL:test/Echo:1.0", "Echo", operations=[
    op("echo", [("s", tc_string)], tc_string),
    op("note", [("s", tc_string)], oneway=True),
])

RELAY = InterfaceDef("IDL:test/Relay:1.0", "Relay", operations=[
    op("relay", [("s", tc_string)], tc_string),
])

FLAKY = InterfaceDef("IDL:test/Flaky:1.0", "Flaky", operations=[
    op("poke", [], tc_long),
])


class EchoServant(Servant):
    _interface = ECHO

    def echo(self, s):
        return s

    def note(self, s):
        pass


class RelayServant(Servant):
    """Forwards to an Echo on another host (nested remote call)."""

    _interface = RELAY

    def __init__(self, orb, target_ior):
        self.orb = orb
        self.target = target_ior

    def relay(self, s):
        reply = yield self.orb.invoke(self.target,
                                      ECHO.operations["echo"], (s,))
        return reply + "!"


class FlakyServant(Servant):
    _interface = FLAKY

    def __init__(self):
        self.failures_left = 0
        self.calls = 0

    def poke(self):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise TRANSIENT("injected")
        return self.calls


class Recorder:
    """Order-recording interceptor (client and server capable)."""

    def __init__(self, label, log):
        self.label = label
        self.log = log

    def send_request(self, info):
        self.log.append(("send", self.label))

    def receive_reply(self, info):
        self.log.append(("reply", self.label))

    def receive_exception(self, info, exc):
        self.log.append(("exc", self.label))

    def receive_request(self, info):
        self.log.append(("recv", self.label))

    def finish_request(self, info):
        self.log.append(("finish", self.label))


def observed_rig(n=2):
    rig = SimRig(star(n), seed=3)
    hub = rig.observe()
    return rig, hub


class TestOrdering:
    def test_client_hooks_forward_then_reversed(self):
        rig = SimRig(star(1), seed=0)
        log = []
        client = rig.node("h0").orb
        client.add_client_interceptor(Recorder("a", log))
        client.add_client_interceptor(Recorder("b", log))
        ior = rig.node("hub").orb.adapter("t").activate(EchoServant())
        assert rig.run(until=client.invoke(
            ior, ECHO.operations["echo"], ("x",))) == "x"
        assert log == [("send", "a"), ("send", "b"),
                       ("reply", "b"), ("reply", "a")]

    def test_server_hooks_forward_then_reversed(self):
        rig = SimRig(star(1), seed=0)
        log = []
        server = rig.node("hub").orb
        server.add_server_interceptor(Recorder("a", log))
        server.add_server_interceptor(Recorder("b", log))
        ior = server.adapter("t").activate(EchoServant())
        rig.run(until=rig.node("h0").orb.invoke(
            ior, ECHO.operations["echo"], ("x",)))
        assert log == [("recv", "a"), ("recv", "b"),
                       ("finish", "b"), ("finish", "a")]

    def test_exception_path_reversed(self):
        rig = SimRig(star(1), seed=0)
        log = []
        client = rig.node("h0").orb
        client.add_client_interceptor(Recorder("a", log))
        client.add_client_interceptor(Recorder("b", log))
        servant = FlakyServant()
        servant.failures_left = 1
        ior = rig.node("hub").orb.adapter("t").activate(servant)

        def proc():
            with pytest.raises(TRANSIENT):
                yield client.invoke(ior, FLAKY.operations["poke"], ())

        rig.run_process(proc())
        assert log == [("send", "a"), ("send", "b"),
                       ("exc", "b"), ("exc", "a")]


class TestTracePropagation:
    def test_client_and_server_spans_share_a_trace(self):
        rig, hub = observed_rig()
        ior = rig.node("hub").orb.adapter("t").activate(EchoServant())
        rig.run(until=rig.node("h0").orb.invoke(
            ior, ECHO.operations["echo"], ("hi",)))
        traces = hub.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        kinds = {s.kind for s in spans}
        assert kinds == {"client", "server"}
        assert hub.tracer.trace_is_connected(spans[0].trace_id)
        server = next(s for s in spans if s.kind == "server")
        client = next(s for s in spans if s.kind == "client")
        assert server.parent_id == client.span_id

    def test_nested_remote_call_joins_the_trace(self):
        # h0 -> hub (relay) -> h1 (echo): three hosts, one trace.
        rig, hub = observed_rig(n=2)
        echo_ior = rig.node("h1").orb.adapter("t").activate(EchoServant())
        relay_ior = rig.node("hub").orb.adapter("t").activate(
            RelayServant(rig.node("hub").orb, echo_ior))
        result = rig.run(until=rig.node("h0").orb.invoke(
            relay_ior, RELAY.operations["relay"], ("hi",)))
        assert result == "hi!"
        traces = hub.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        assert len(spans) == 4  # call+serve relay, call+serve echo
        assert hub.tracer.trace_is_connected(spans[0].trace_id)
        inner_client = next(s for s in spans
                            if s.kind == "client" and "echo" in s.name)
        outer_server = next(s for s in spans
                            if s.kind == "server" and "relay" in s.name)
        assert inner_client.parent_id == outer_server.span_id

    def test_retry_attempts_share_one_trace(self):
        rig, hub = observed_rig()
        servant = FlakyServant()
        servant.failures_left = 1
        ior = rig.node("hub").orb.adapter("t").activate(servant)

        def proc():
            value = yield from invoke_with_retry(
                rig.node("h0").orb, ior, FLAKY.operations["poke"], (),
                policy=RetryPolicy(attempts=3, timeout=5.0, backoff=0.1))
            return value

        assert rig.run_process(proc()) == 2
        traces = hub.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        # retry envelope + 2 attempts x (client + server)
        assert len(spans) == 5
        assert hub.tracer.trace_is_connected(spans[0].trace_id)
        root = next(s for s in spans if s.parent_id is None)
        assert root.name == "retry:poke"
        assert root.attrs["attempts"] == 2
        failed = [s for s in spans if s.status == "error"]
        assert {s.kind for s in failed} == {"client", "server"}
        assert all(s.error == "IDL:omg.org/CORBA/TRANSIENT:1.0"
                   or "TRANSIENT" in s.error for s in failed)

    def test_fanout_under_one_bound_context(self):
        # one logical report fanned out to two receivers: all four spans
        # (2 client + 2 server) under the root the caller bound.
        rig, hub = observed_rig(n=2)
        iors = [rig.node(h).orb.adapter("t").activate(EchoServant())
                for h in ("hub", "h1")]
        orb = rig.node("h0").orb

        def proc():
            root = hub.tracer.start_span("fanout", host="h0")
            hub.context.bind(rig.env.active_process, root.context)
            for ior in iors:
                orb.send_oneway(ior, ECHO.operations["note"], ("n",))
            yield rig.env.timeout(1.0)
            hub.tracer.end_span(root)

        rig.run_process(proc())
        traces = hub.traces()
        assert len(traces) == 1
        (spans,) = traces.values()
        assert len(spans) == 5
        assert hub.tracer.trace_is_connected(spans[0].trace_id)
        root = next(s for s in spans if s.parent_id is None)
        clients = [s for s in spans if s.kind == "client"]
        assert {s.parent_id for s in clients} == {root.span_id}
        assert {s.host for s in spans if s.kind == "server"} == \
            {"hub", "h1"}


    def test_malformed_trace_slot_is_a_root_span_not_an_error(self):
        # The peer's service context is outside input: a trace slot that
        # is not 8 bytes is treated as absent, ids nobody knows are
        # carried and ignored, and the call itself is served.
        from repro.obs import TRACE_CONTEXT_ID

        class Forger:
            def __init__(self, slots):
                self.slots = slots

            def send_request(self, info):
                info.service_context.extend(self.slots)

            def receive_reply(self, info):
                pass

        for slots in ([(TRACE_CONTEXT_ID, b"\x00" * 7)],
                      [(TRACE_CONTEXT_ID, b"")],
                      [(TRACE_CONTEXT_ID, b"\x00" * 9), (0xBEEF, b"?")],
                      [(0xBEEF, b"\x00" * 8)]):
            rig = SimRig(star(1), seed=3)
            hub = Observability(rig.env, rig.metrics)
            hub.install(rig.node("hub").orb)      # server side only
            client = rig.node("h0").orb
            client.add_client_interceptor(Forger(slots))
            ior = rig.node("hub").orb.adapter("t").activate(EchoServant())
            assert rig.run(until=client.invoke(
                ior, ECHO.operations["echo"], ("x",))) == "x"
            (span,) = hub.tracer.spans
            assert (span.name, span.parent_id, span.status) == \
                ("serve:echo", None, "ok")

    def test_plain_servant_call_parents_under_its_own_request(self):
        # A plain (non-generator) servant's nested call finds its parent
        # through the ORB's current request, which is set only while
        # the servant method is on the stack.
        rig, hub = observed_rig(n=2)
        echo_ior = rig.node("h1").orb.adapter("t").activate(EchoServant())
        orb = rig.node("hub").orb
        seen = []

        class Forwarder(Servant):
            _interface = ECHO

            def echo(self, s):
                seen.append(orb.current_request)
                orb.send_oneway(echo_ior, ECHO.operations["note"], (s,))
                return s

        ior = orb.adapter("t").activate(Forwarder())
        rig.run(until=rig.node("h0").orb.invoke(
            ior, ECHO.operations["echo"], ("x",)))
        rig.run(until=rig.env.now + 1.0)
        assert orb.current_request is None
        (request,) = seen
        assert request.operation == "echo"
        (spans,) = hub.traces().values()
        assert [s.name for s in spans] == [
            "call:echo", "serve:echo", "call:note", "serve:note"]
        assert spans[2].parent_id == spans[1].span_id


class TestMetricsRecording:
    def test_latency_and_size_histograms(self):
        rig, hub = observed_rig()
        ior = rig.node("hub").orb.adapter("t").activate(EchoServant())
        for _ in range(5):
            rig.run(until=rig.node("h0").orb.invoke(
                ior, ECHO.operations["echo"], ("payload",)))
        m = hub.metrics
        lat = m.find_histogram("orb.client.latency.echo")
        assert lat.count == 5
        assert lat.percentile(50) > 0
        assert m.find_histogram("orb.server.latency.echo").count == 5
        assert m.find_histogram("orb.client.request_bytes.echo").count == 5
        assert m.find_histogram("orb.client.reply_bytes.echo").count == 5

    def test_errors_counted(self):
        rig, hub = observed_rig()
        servant = FlakyServant()
        servant.failures_left = 1
        ior = rig.node("hub").orb.adapter("t").activate(servant)

        def proc():
            with pytest.raises(TRANSIENT):
                yield rig.node("h0").orb.invoke(
                    ior, FLAKY.operations["poke"], ())

        rig.run_process(proc())
        assert hub.metrics.get("orb.client.errors.poke") == 1
        assert hub.metrics.get("orb.server.errors.poke") == 1

    def test_pending_depth_series_sampled(self):
        from repro.obs import PENDING_DEPTH_GAUGE
        rig, hub = observed_rig()
        ior = rig.node("hub").orb.adapter("t").activate(EchoServant())
        rig.run(until=rig.node("h0").orb.invoke(
            ior, ECHO.operations["echo"], ("x",)))
        gauge = hub.metrics.gauge(PENDING_DEPTH_GAUGE)
        assert gauge.count == 2          # insert + drain
        assert gauge.max() == 1
        assert gauge.last == 0

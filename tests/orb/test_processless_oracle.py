"""Processless dispatch under interceptors, checked against the process
path.

``dispatch_workers`` (admission slots) keeps every dispatch on the
kernel-process path, so an instrumented run with 64 workers is the
oracle for the same run without: one scenario, both ways, and the span
trees, histogram counts and client results must be equal while the
processless run schedules exactly the predicted number of kernel events
fewer.  Three named mutants of the processless path must each make the
comparison fail, or it proves nothing.
"""

import sys

import pytest

from repro.obs import Observability
from repro.obs.trace import spans_connected
from repro.orb import giop
from repro.orb.core import (ORB, InterfaceDef, Servant,
                            make_exception_class, op)
from repro.orb.exceptions import TRANSIENT
from repro.orb.ior import IOR
from repro.orb.listener import Listener
from repro.orb.typecodes import except_tc, tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

REFUSED_TC = except_tc("Refused", [("why", tc_string)],
                       repo_id="IDL:oracle/Refused:1.0")
Refused = make_exception_class("Refused", REFUSED_TC)

LEAF = InterfaceDef("IDL:oracle/Leaf:1.0", "Leaf", operations=[
    op("echo", [("s", tc_string)], tc_string),
    op("note", [("s", tc_string)], oneway=True, cpu_cost=0.0),
    op("null", [("n", tc_long)], tc_long, cpu_cost=0.0),
    op("refuse", [], tc_long, raises=[REFUSED_TC]),
    op("fail", [], tc_long),
])

#: ``relay`` costs 20x a default operation, so two requests a fraction
#: of that apart are both admitted before either servant runs.
FRONT = InterfaceDef("IDL:oracle/Front:1.0", "Front", operations=[
    op("relay", [("s", tc_string)], tc_string, cpu_cost=2.0),
    op("chain", [("s", tc_string)], tc_string),
    op("late", [("s", tc_string)], tc_string),
])


class Leaf(Servant):
    _interface = LEAF

    def echo(self, s):
        return s

    def note(self, s):
        pass

    def null(self, n):
        return n

    def refuse(self):
        raise Refused("no")

    def fail(self):
        raise TRANSIENT("injected")


class Front(Servant):
    _interface = FRONT

    def __init__(self, orb, leaf):
        self.orb = orb
        self.leaf = leaf

    def relay(self, s):
        """Plain method: a nested two-way call (reply not awaited) and a
        oneway, both of which must parent under *this* dispatch."""
        self.orb.invoke(self.leaf, LEAF.operations["echo"], (s,))
        self.orb.send_oneway(self.leaf, LEAF.operations["note"], (s,))
        return s.upper()

    def chain(self, s):
        """Generator servant: process path on both sides."""
        reply = yield self.orb.invoke(self.leaf, LEAF.operations["echo"],
                                      (s,))
        return reply + "!"

    def late(self, s):
        """Plain method handing back a generator: ``_dispatch_tail``."""
        return self.chain(s)


def run_scenario(dispatch_workers):
    env = Environment()
    net = Network(env, star(3), rngs=RngRegistry(17))
    orbs = {host: ORB(env, net, host, default_timeout=5.0,
                      dispatch_workers=dispatch_workers)
            for host in ("hub", "h0", "h1", "h2")}
    hub = Observability(env, net.metrics)
    for orb in orbs.values():
        hub.install(orb)
    leaf = orbs["h1"].adapter("t").activate(Leaf())
    front = orbs["hub"].adapter("t").activate(Front(orbs["hub"], leaf))
    nowhere = IOR(FRONT.repo_id, "hub", "t", "no-such-key")
    results = []

    def attempt(orb, ior, odef, args):
        try:
            results.append((yield orb.invoke(ior, odef, args)))
        except Exception as exc:
            results.append(type(exc).__name__)

    def first_user():
        orb = orbs["h0"]
        yield from attempt(orb, front, FRONT.operations["relay"], ("a",))
        yield from attempt(orb, front, FRONT.operations["chain"], ("c",))
        yield from attempt(orb, front, FRONT.operations["late"], ("d",))
        yield from attempt(orb, leaf, LEAF.operations["refuse"], ())
        yield from attempt(orb, leaf, LEAF.operations["fail"], ())
        yield from attempt(orb, nowhere, FRONT.operations["relay"], ("e",))
        yield from attempt(orb, leaf, LEAF.operations["null"], (7,))
        # Arguments that do not decode: the error leaves the dispatch
        # before any servant runs.
        bad = giop.RequestMessage(999, True, "h1", "t", leaf.object_key,
                                  "echo", b"\xff").encode()
        net.send("h0", "h1", "giop", bad, len(bad))

    def second_user():
        yield env.timeout(1e-4)   # inside the first relay's CPU cost
        yield from attempt(orbs["h2"], front, FRONT.operations["relay"],
                           ("b",))

    env.process(first_user())
    env.process(second_user())
    env.run(until=10.0)
    return hub, results, env._eid


def span_paths(hub):
    """Every span as its root-to-span path of (name, kind, host, start)
    plus its own outcome — equal lists mean equal trees."""
    by_id = {s.span_id: s for s in hub.tracer.spans}

    def path(span):
        step = (span.name, span.kind, span.host, span.start)
        if span.parent_id is None:
            return (step,)
        return path(by_id[span.parent_id]) + (step,)

    return sorted((path(s), s.status, s.error, s.end)
                  for s in hub.tracer.spans)


def assert_equivalent(change, oracle):
    hub_c, results_c, _ = change
    hub_o, results_o, _ = oracle
    assert results_c == results_o
    for hub in (hub_c, hub_o):
        assert all(spans_connected(spans)
                   for spans in hub.traces().values())
        assert not [s for s in hub.tracer.spans if not s.finished]
    assert span_paths(hub_c) == span_paths(hub_o)
    counts = [{name: hist.count
               for name, hist in hub.metrics.histograms().items()}
              for hub in (hub_c, hub_o)]
    assert counts[0] == counts[1]


@pytest.fixture(scope="module")
def oracle():
    return run_scenario(dispatch_workers=64)


def test_processless_run_equals_the_process_path(oracle):
    change = run_scenario(dispatch_workers=None)
    assert_equivalent(change, oracle)
    hub, results, events = change
    assert results == ["A", "B", "c!", "d!", "Refused", "TRANSIENT",
                       "OBJECT_NOT_EXIST", 7]
    # The interleaving the scenario exists for: both relays admitted
    # before either servant ran, and each nested call under its own.
    relays = [s for s in hub.tracer.spans if s.name == "serve:relay"
              and s.status == "ok"]
    assert len(relays) == 2
    assert relays[1].start < relays[0].end
    for relay in relays:
        children = [s for s in hub.tracer.spans
                    if s.parent_id == relay.span_id]
        assert sorted(s.name for s in children) == ["call:echo", "call:note"]
    # What the process path costs and this one does not, per request: a
    # plain dispatch its process start, slot grant and process end (3);
    # one refused before the slot (unknown key, undecodable arguments)
    # start and end (2); a generator dispatch, or a plain method that
    # returned one, only the slot grant — it needs a process anyway (1).
    plain = 2 + 4 + 2 + 3   # relays, their echo + note, the chain and
    #                         late echoes, refuse / fail / null
    refused_early = 2
    generators = 2
    assert oracle[2] - events == 3 * plain + 2 * refused_early + generators


def test_instrumented_null_call_adds_no_kernel_events():
    # Request delivery, reply delivery, reply event (the reply-deadline
    # sweeper is armed by the first call; with it a null call is 4).
    # The process path adds its start, slot grant and end.
    def null_call_events(dispatch_workers, observe):
        env = Environment()
        net = Network(env, star(1), rngs=RngRegistry(1))
        server = ORB(env, net, "hub", dispatch_workers=dispatch_workers)
        client = ORB(env, net, "h0")
        if observe:
            hub = Observability(env, net.metrics)
            hub.install(server)
            hub.install(client)
        ior = server.adapter("t").activate(Leaf())
        odef = LEAF.operations["null"]
        client.call(ior, odef, (0,))           # first-touch work
        before = env._eid
        assert client.call(ior, odef, (1,)) == 1
        return env._eid - before

    assert null_call_events(None, observe=False) == 3
    assert null_call_events(None, observe=True) == 3
    assert null_call_events(64, observe=True) == 6


# -- mutants -----------------------------------------------------------------
# Each re-creates one plausible wrong version of the processless path by
# wrapping Listener internals, and the comparison above must catch it.

def mutant_current_request_set_at_admission(monkeypatch):
    """The current request is whichever was admitted last, instead of
    the one whose servant is on the stack."""
    real_fast = Listener._dispatch_fast
    real_finish = Listener._dispatch_finish

    def fast(self, request, client, info):
        self._admitted = info
        return real_fast(self, request, client, info)

    def finish(self, ev):
        request, client, odef, method, args, info = ev._value

        def servant(*a):
            self.orb.current_request = self._admitted
            return method(*a)

        ev._value = (request, client, odef, servant, args, info)
        real_finish(self, ev)

    monkeypatch.setattr(Listener, "_dispatch_fast", fast)
    monkeypatch.setattr(Listener, "_dispatch_finish", finish)


def mutant_finish_request_skipped_on_decode_error(monkeypatch):
    """A request refused inside ``_dispatch_fast`` (unknown key,
    undecodable arguments) never reaches ``finish_request``."""
    real_fast = Listener._dispatch_fast
    real_finish = Listener._dispatch_finish
    real_done = Listener._dispatch_done

    def fast(self, request, client, info):
        self._admitting = True
        try:
            return real_fast(self, request, client, info)
        finally:
            self._admitting = False

    def finish(self, ev):
        self._admitting = False          # past the error path
        real_finish(self, ev)

    def done(self, info):
        real_done(self, None if self._admitting else info)

    monkeypatch.setattr(Listener, "_dispatch_fast", fast)
    monkeypatch.setattr(Listener, "_dispatch_finish", finish)
    monkeypatch.setattr(Listener, "_dispatch_done", done)


def mutant_child_process_not_run_from_dispatch_tail(monkeypatch):
    """A plain method's generator is driven without telling the
    interceptors which request it belongs to."""
    real_run = Listener._run_generator

    def run_generator(self, gen, info):
        if sys._getframe(1).f_code.co_name == "_dispatch_tail":
            info = None
        return real_run(self, gen, info)

    monkeypatch.setattr(Listener, "_run_generator", run_generator)


@pytest.mark.parametrize("mutant", [
    mutant_current_request_set_at_admission,
    mutant_finish_request_skipped_on_decode_error,
    mutant_child_process_not_run_from_dispatch_tail,
], ids=lambda m: m.__name__)
def test_named_mutant_fails_the_comparison(mutant, oracle, monkeypatch):
    mutant(monkeypatch)
    change = run_scenario(dispatch_workers=None)
    with pytest.raises(AssertionError):
        assert_equivalent(change, oracle)

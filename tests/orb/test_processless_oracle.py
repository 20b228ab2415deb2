"""The listener's one dispatch path under interceptors, checked against
the process-per-request reference.

``tests/oracles/dispatch.py`` swaps the old path -- one kernel process
per request -- back in for ``Listener.dispatch``.  One scenario runs
both ways at ``dispatch_workers`` None, 64 and 1 (at 1 every request
queues FIFO for the host's one slot): the span trees, histogram counts
and client results must be equal, while the one path schedules exactly
the predicted number of kernel events fewer.  The one path's figures
must not depend on same-instant NORMAL tie order either, and three
named mutants of it must each make the comparison fail, or it proves
nothing.
"""

import contextlib
import functools
import sys

import pytest

from repro.obs import Observability
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

from tests.oracles.dispatch import process_per_request
from tests.oracles.tiekernel import permuted_ties
from tests.oracles.trace import spans_connected

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
        """Generator servant: ``_dispatch_tail`` drives it."""
        reply = yield self.orb.invoke(self.leaf, LEAF.operations["echo"],
                                      (s,))
        return reply + "!"

    def late(self, s):
        """Plain method handing back a generator: ``_dispatch_tail``."""
        return self.chain(s)


def run_scenario(dispatch_workers, reference=False):
    """The scenario on the one path, or on the process-per-request
    reference: (observability hub, client results, kernel events)."""
    with process_per_request() if reference else contextlib.nullcontext():
        return _run(dispatch_workers)


@functools.lru_cache(maxsize=None)
def reference(dispatch_workers):
    return run_scenario(dispatch_workers, reference=True)


def _run(dispatch_workers):
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


RESULTS = ["A", "B", "c!", "d!", "Refused", "TRANSIENT",
           "OBJECT_NOT_EXIST", 7]


@pytest.mark.parametrize("workers", [None, 64, 1])
def test_one_path_equals_the_reference(workers):
    change = run_scenario(workers)
    oracle = reference(workers)
    assert_equivalent(change, oracle)
    hub, results, events = change
    assert results == RESULTS
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
    # What the reference costs and the one path does not, per request,
    # at any worker count: a plain dispatch its process start and end
    # (2); one refused before the servant (unknown key, undecodable
    # arguments) the same (2).  A generator dispatch, or a plain method
    # that returned one, starts a process on both paths, and a slot
    # grant is one event on both (0).
    plain = 2 + 4 + 2 + 3   # relays, their echo + note, the chain and
    #                         late echoes, refuse / fail / null
    refused_early = 2
    assert oracle[2] - events == 2 * plain + 2 * refused_early


def test_one_worker_serializes_the_relays():
    # The two relays overlap on unbounded workers; on one slot the
    # second is charged its CPU cost only once the first has returned.
    def relay_gap(workers):
        hub = run_scenario(workers)[0]
        first, second = sorted(s.end for s in hub.tracer.spans
                               if s.name == "serve:relay"
                               and s.status == "ok")
        return second - first

    relay_s = FRONT.operations["relay"].cpu_cost / star(3).host(
        "hub").profile.cpu_power
    assert relay_gap(None) < relay_s
    assert relay_gap(1) == pytest.approx(relay_s)


@pytest.mark.parametrize("workers", [None, 1])
@pytest.mark.parametrize("tie_seed", [1, 2])
def test_one_path_ignores_normal_tie_order(workers, tie_seed):
    with permuted_ties(tie_seed):
        hub, results, _ = run_scenario(workers)
    assert results == RESULTS
    assert span_paths(hub) == span_paths(run_scenario(workers)[0])


def test_instrumented_null_call_adds_no_kernel_events():
    # Request delivery, reply delivery, reply event (the reply-deadline
    # sweeper is armed by the first call; with it a null call is 4).  A
    # worker slot adds its grant; the reference adds a process start and
    # end on top.
    def null_call_events(dispatch_workers, observe, reference=False):
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
        with process_per_request() if reference \
                else contextlib.nullcontext():
            assert client.call(ior, odef, (1,)) == 1
        return env._eid - before

    assert null_call_events(None, observe=False) == 3
    assert null_call_events(None, observe=True) == 3
    assert null_call_events(64, observe=True) == 4
    assert null_call_events(64, observe=True, reference=True) == 6


# -- mutants -----------------------------------------------------------------
# Each re-creates one plausible wrong version of the one path by
# wrapping Listener internals, and the comparison above must catch it.

def mutant_current_request_set_at_admission(monkeypatch):
    """The current request is whichever was admitted last, instead of
    the one whose servant is on the stack."""
    real_dispatch = Listener.dispatch
    real_finish = Listener._dispatch_finish

    def dispatch(self, request, client, info):
        self._admitted = info
        return real_dispatch(self, request, client, info)

    def finish(self, ev):
        request, client, odef, method, args, info = ev._value

        def servant(*a):
            self.orb.current_request = self._admitted
            return method(*a)

        ev._value = (request, client, odef, servant, args, info)
        real_finish(self, ev)

    monkeypatch.setattr(Listener, "dispatch", dispatch)
    monkeypatch.setattr(Listener, "_dispatch_finish", finish)


def mutant_finish_request_skipped_on_decode_error(monkeypatch):
    """A request refused inside ``dispatch`` (unknown key, undecodable
    arguments) never reaches ``finish_request``."""
    real_dispatch = Listener.dispatch
    real_finish = Listener._dispatch_finish
    real_done = Listener._dispatch_done

    def dispatch(self, request, client, info):
        self._admitting = True
        try:
            return real_dispatch(self, request, client, info)
        finally:
            self._admitting = False

    def finish(self, ev):
        self._admitting = False          # past the error path
        real_finish(self, ev)

    def done(self, info):
        real_done(self, None if self._admitting else info)

    monkeypatch.setattr(Listener, "dispatch", dispatch)
    monkeypatch.setattr(Listener, "_dispatch_finish", finish)
    monkeypatch.setattr(Listener, "_dispatch_done", done)


def mutant_child_process_not_run_from_dispatch_tail(monkeypatch):
    """A servant's generator is driven without telling the interceptors
    which request it belongs to."""
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
def test_named_mutant_fails_the_comparison(mutant, monkeypatch):
    oracle = reference(None)
    mutant(monkeypatch)
    change = run_scenario(dispatch_workers=None)
    with pytest.raises(AssertionError):
        assert_equivalent(change, oracle)

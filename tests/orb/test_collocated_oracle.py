"""A call to an object of the caller's own ORB, checked against the wire.

A reference into the local ORB is handed to the listener at the
transport step instead of being framed and sent (``ORB._send_requests``),
and its reply is settled instead of framed (``Listener.reply``).  Those
two branches are the whole difference, so a run with both hand-overs
forced back onto the fabric — from here, by re-routing them through
``encode()`` and ``Network.send``; ``src/`` has no switch — is the
oracle for the same run without: one script over every operation shape,
both ways, and everything a caller, a servant, an interceptor or an
operator can observe must be equal.  Named mutants of the collocated
branch must each make the comparison fail, or it proves nothing.
"""

import sys
from types import SimpleNamespace

import pytest

from repro.obs import Observability
from repro.orb.core import (ORB, InterfaceDef, Servant,
                            make_exception_class, op)
from repro.orb.exceptions import (MINOR_SHED, TRANSIENT, SystemException,
                                  UserException)
from repro.orb.ior import IOR
from repro.orb.listener import Listener
from repro.orb.typecodes import except_tc, sequence_tc, tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import DESKTOP, star

from tests.oracles.trace import spans_connected

DECLARED_TC = except_tc("Declared", [("why", tc_string), ("code", tc_long)],
                        repo_id="IDL:collocated/Declared:1.0")
Declared = make_exception_class("Declared", DECLARED_TC)
UNDECLARED_TC = except_tc("Undeclared", [("why", tc_string)],
                          repo_id="IDL:collocated/Undeclared:1.0")
Undeclared = make_exception_class("Undeclared", UNDECLARED_TC)
UNREGISTERED_TC = except_tc("Unregistered", [("why", tc_string)],
                            repo_id="IDL:collocated/Unregistered:1.0")


class Unregistered(UserException):
    """Declared in ``raises`` but never registered: the server cannot
    marshal it."""
    REPO_ID = UNREGISTERED_TC.repo_id
    FIELDS = ("why",)


#: Both hosts are DESKTOPs, so one cpu-second is this many cost units
#: and ``work`` takes exactly one simulated second.
POWER = DESKTOP.cpu_power

SHAPES = InterfaceDef("IDL:collocated/Shapes:1.0", "Shapes", operations=[
    op("ping", []),
    op("echo", [("s", tc_string)], tc_string),
    op("join", [("a", tc_string), ("n", tc_long), ("b", tc_string)],
       tc_string),
    op("total", [("items", sequence_tc(tc_long))], tc_long),
    op("split", [("s", tc_string), ("head", tc_string, "out"),
                 ("tail", tc_string, "out")]),
    op("scale", [("x", tc_long, "inout"), ("factor", tc_long)], tc_long),
    op("declared", [], tc_long, raises=[DECLARED_TC]),
    op("undeclared", [], tc_long, raises=[DECLARED_TC]),
    op("unregistered", [], tc_long, raises=[UNREGISTERED_TC]),
    op("refuse", [], tc_long),
    op("bug", [], tc_long),
    op("chain", [("s", tc_string)], tc_string),
    op("late", [("s", tc_string)], tc_string),
    op("null", [("n", tc_long)], tc_long, cpu_cost=0.0),
    op("note", [("s", tc_string)], oneway=True),
    op("work", [("s", tc_string)], tc_string, cpu_cost=POWER),
    op("slow", [], tc_long, cpu_cost=3 * POWER),
    op("missing", [], tc_long),
])
OPS = SHAPES.operations
NONESUCH = op("nonesuch", [], tc_long)


class Shapes(Servant):
    """One method per operation shape; ``missing`` has none on purpose."""

    _interface = SHAPES

    def __init__(self, orb):
        self.orb = orb
        self.ior = None
        self.notes = []
        self.lists = []

    def ping(self):
        return None

    def echo(self, s):
        return s

    def join(self, a, n, b):
        return f"{a}{n}{b}"

    def total(self, items):
        self.lists.append(items)
        items.append(1000)          # the servant's copy, never the caller's
        return sum(items)

    def split(self, s):
        return (s[:1], s[1:])

    def scale(self, x, factor):
        return (x * factor, x + 1)

    def declared(self):
        raise Declared("no", 7)

    def undeclared(self):
        raise Undeclared("surprise")

    def unregistered(self):
        raise Unregistered("cannot marshal")

    def refuse(self):
        raise TRANSIENT("try later", minor=3)

    def bug(self):
        raise KeyError("oops")

    def chain(self, s):
        """Generator servant making a nested call into its own ORB."""
        reply = yield self.orb.invoke(self.ior, OPS["echo"], (s,))
        return reply + "!"

    def late(self, s):
        """Plain method handing back a generator."""
        return self.chain(s)

    def null(self, n):
        return n

    def note(self, s):
        self.notes.append(s)

    def work(self, s):
        return s.upper()

    def slow(self):
        return 1


def describe(exc):
    if exc is None:
        return None
    if isinstance(exc, UserException):
        return (type(exc).__name__, dict(zip(exc.FIELDS, exc.field_values())))
    if isinstance(exc, SystemException):
        return (type(exc).__name__, exc.reason, exc.minor, exc.completed)
    return (type(exc).__name__, str(exc))


def slot_shapes(service_context):
    """Span ids are handed out in span-start order, which inside one
    instant is not the same in the two arms (a collocated oneway's
    server span starts before the caller's next call does), so a slot is
    compared by id and size here, by content between the two ends of
    its own call (``Recorder.slots``), and by effect in the span tree."""
    return tuple((context_id, len(data))
                 for context_id, data in service_context)


class Recorder:
    """Client + server interceptor logging what each hook can see."""

    def __init__(self, env):
        self.env = env
        self.client = []
        self.server = []
        #: request id -> [slots as sent, slots as received]
        self.slots = {}

    def send_request(self, info):
        self.client.append(("send_request", info.operation, info.request_id,
                            info.oneway, self.env.now))

    def _completed(self, hook, info, exc):
        self.client.append((hook, info.operation, info.request_id,
                            info.request_bytes, info.reply_bytes,
                            slot_shapes(info.service_context), describe(exc),
                            self.env.now))
        self.slots.setdefault(info.request_id, [None, None])[0] = \
            tuple(info.service_context)

    def receive_reply(self, info):
        self._completed("receive_reply", info, None)

    def receive_exception(self, info, exc):
        self._completed("receive_exception", info, exc)

    def receive_request(self, info):
        self.server.append(("receive_request", info.operation,
                            info.request.request_id, info.client,
                            info.request_bytes,
                            slot_shapes(info.service_context), self.env.now))
        self.slots.setdefault(info.request.request_id, [None, None])[1] = \
            info.service_context

    def finish_request(self, info):
        self.server.append(("finish_request", info.operation,
                            info.request.request_id, info.reply_status,
                            info.reply_bytes, describe(info.exception),
                            self.env.now))


class World:
    """Two hosts, an instrumented ORB on each, a ``Shapes`` on both; the
    scripts call the one on their own host (``here``) and, once, the
    other (``there``) — a call that is on the wire in both arms."""

    def __init__(self, **orb_options):
        self.env = env = Environment()
        self.net = Network(env, star(1, hub_profile=DESKTOP),
                           rngs=RngRegistry(23))
        self.orb = ORB(env, self.net, "hub", default_timeout=5.0,
                       **orb_options)
        self.peer = ORB(env, self.net, "h0", default_timeout=5.0)
        self.hub = Observability(env, self.net.metrics)
        self.recorder = Recorder(env)
        self.pending_depths = []
        self.dispatch_depths = []
        for orb in (self.orb, self.peer):
            self.hub.install(orb)
            orb.add_client_interceptor(self.recorder)
            orb.add_server_interceptor(self.recorder)
        self.orb.pending_watchers.append(self.pending_depths.append)
        self.orb.dispatch_watchers.append(self.dispatch_depths.append)
        self.servant = Shapes(self.orb)
        self.here = self.servant.ior = \
            self.orb.adapter("t").activate(self.servant)
        self.there = self.peer.adapter("t").activate(Shapes(self.peer))
        self.results = []

    def attempt(self, label, ior, odef, args, **options):
        try:
            outcome = ("ok", (yield self.orb.invoke(ior, odef, args,
                                                    **options)))
        except Exception as exc:
            outcome = describe(exc)
        self.results.append((label, outcome, self.env.now))

    def set_alive(self, alive):
        self.net.topology.set_host_state("hub", alive=alive)

    def transcript(self):
        hub, metrics = self.hub, self.net.metrics
        assert all(spans_connected(spans) for spans in hub.traces().values())
        assert not [s for s in hub.tracer.spans if not s.finished]
        counters = metrics.counters()
        return {
            "results": self.results,
            "client hooks": self.recorder.client,
            "server hooks": self.recorder.server,
            "spans": span_paths(hub),
            "requests whose slots arrived changed": sorted(
                request_id for request_id, (sent, received)
                in self.recorder.slots.items()
                if received is not None and received != sent),
            "orb counters": {name: value for name, value in counters.items()
                             if name.startswith("orb.")},
            "dropped on a dead host": counters.get("net.dropped.src_dead", 0),
            "histograms": {name: (hist.count, hist.total) for name, hist
                           in metrics.histograms().items()},
            "pending depths": self.pending_depths,
            "dispatch depths": self.dispatch_depths,
            "notes": self.servant.notes,
            "servant lists": self.servant.lists,
        }


def span_paths(hub):
    """Every span as its root-to-span path of (name, kind, host, start)
    plus its own outcome and sizes — equal lists mean equal trees, a
    server span under its client span included."""
    by_id = {s.span_id: s for s in hub.tracer.spans}

    def path(span):
        step = (span.name, span.kind, span.host, span.start)
        if span.parent_id is None:
            return (step,)
        return path(by_id[span.parent_id]) + (step,)

    return sorted((path(s), s.status, s.error, s.end,
                   s.bytes_in, s.bytes_out)
                  for s in hub.tracer.spans)


# -- the scripts -------------------------------------------------------------

def every_shape():
    """Every operation shape in sequence, then the host crashing under
    its own calls."""
    world = World()
    env, here, attempt = world.env, world.here, world.attempt
    mine = [1, 2, 3]

    def script():
        yield from attempt("void", here, OPS["ping"], ())
        yield from attempt("one argument", here, OPS["echo"], ("a",))
        yield from attempt("several", here, OPS["join"], ("a", 2, "b"))
        yield from attempt("mutable argument", here, OPS["total"], (mine,))
        yield from attempt("out", here, OPS["split"], ("abc",))
        yield from attempt("inout", here, OPS["scale"], (4, 3))
        yield from attempt("declared", here, OPS["declared"], ())
        yield from attempt("undeclared", here, OPS["undeclared"], ())
        yield from attempt("unregistered", here, OPS["unregistered"], ())
        yield from attempt("system", here, OPS["refuse"], ())
        yield from attempt("servant bug", here, OPS["bug"], ())
        yield from attempt("generator", here, OPS["chain"], ("c",))
        yield from attempt("late generator", here, OPS["late"], ("d",))
        yield from attempt("zero cost", here, OPS["null"], (7,))
        yield from attempt("oneway", here, OPS["note"], ("n1",))
        yield from attempt("metered", here, OPS["echo"], ("m",),
                           meter="registry.query")
        world.orb.send_oneway_fanout([here, world.there, here],
                                     OPS["note"], ("n2",),
                                     meter="registry.query")
        yield from attempt("remote", world.there, OPS["echo"], ("r",))
        yield from attempt("no adapter", IOR(SHAPES.repo_id, "hub", "nope",
                                             here.object_key),
                           OPS["echo"], ("x",))
        yield from attempt("no key", IOR(SHAPES.repo_id, "hub", "t", "nope"),
                           OPS["echo"], ("x",))
        yield from attempt("no operation", here, NONESUCH, ())
        yield from attempt("no method", here, OPS["missing"], ())
        yield from attempt("wrong count", here, OPS["echo"], ("a", "b"))
        yield from attempt("wrong type", here, OPS["echo"], (5,))
        yield from attempt("negative timeout", here, OPS["echo"], ("a",),
                           timeout=-1.0)
        # The servant (3 s) outlives the deadline; its reply comes late.
        yield from attempt("deadline", here, OPS["slow"], (), timeout=0.5)
        yield env.timeout(3.0)

        # The host dies half-way through a dispatch: the call fails
        # now, the servant's reply is dropped on the dead host, and so
        # is a request made there.
        start = env.now
        env.process(attempt("crash mid-dispatch", here, OPS["work"], ("w",)))
        yield env.timeout(0.5)
        world.set_alive(False)
        yield env.timeout(1.0)
        yield from attempt("call on a dead host", here, OPS["echo"], ("x",),
                           timeout=0.25)
        world.set_alive(True)
        yield from attempt("after restart", here, OPS["echo"], ("y",))
        # Down and up again inside one dispatch: the reply is late.
        env.process(attempt("restart mid-dispatch", here, OPS["work"],
                            ("v",)))
        yield env.timeout(0.25)
        world.set_alive(False)
        yield env.timeout(0.25)
        world.set_alive(True)
        yield env.timeout(1.0)
        yield from attempt("at the end", here, OPS["echo"], ("z",))
        assert env.now > start + 3.0

    env.process(script())
    env.run(until=30.0)
    transcript = world.transcript()
    transcript["caller's list"] = mine
    transcript["servant got the caller's list"] = \
        [items is mine for items in world.servant.lists]
    return world, transcript


def queued():
    """``dispatch_workers=1``: the second of two overlapping calls waits
    for the slot, a oneway behind them too."""
    world = World(dispatch_workers=1)
    env, here, attempt = world.env, world.here, world.attempt

    def first():
        yield from attempt("holds the slot", here, OPS["work"], ("a",))
        yield from attempt("generator", here, OPS["chain"], ("c",))

    def second():
        yield env.timeout(0.25)
        yield from attempt("queued", here, OPS["work"], ("b",))
        yield from attempt("oneway", here, OPS["note"], ("n",))

    env.process(first())
    env.process(second())
    env.run(until=10.0)
    return world, world.transcript()


def shed():
    """``dispatch_limit=1``: while one call is in the table a second is
    refused and a oneway dropped."""
    world = World(dispatch_limit=1)
    env, here, attempt = world.env, world.here, world.attempt

    def first():
        yield from attempt("fills the table", here, OPS["work"], ("a",))
        yield from attempt("admitted again", here, OPS["echo"], ("c",))

    def second():
        yield env.timeout(0.25)
        yield from attempt("shed", here, OPS["work"], ("b",))
        yield from attempt("oneway shed", here, OPS["note"], ("n",))

    env.process(first())
    env.process(second())
    env.run(until=10.0)
    return world, world.transcript()


SCRIPTS = [every_shape, queued, shed]


# -- the oracle: the same calls on the fabric ---------------------------------

def force_wire(monkeypatch):
    """Send what the two collocated branches hand over through the
    fabric instead, as every call travelled before the branches existed:
    the request framed by ``RequestMessage.encode``, the reply by
    ``ReplyMessage.encode``, both through ``Network.send`` to the
    listener's own ``on_message``.  The sizes the branches computed
    arithmetically must be the sizes of the real frames."""
    real_admit, real_complete = Listener.admit, ORB._complete

    def admit(self, request, src, wire_size):
        if sys._getframe(1).f_code.co_name != "_send_requests":
            return real_admit(self, request, src, wire_size)
        wire = request.encode()
        assert len(wire) == wire_size
        self.network.send(src, self.host_id, "giop", wire, len(wire))

    def complete(self, reply, wire_size=0):
        if sys._getframe(1).f_code.co_name != "reply":
            return real_complete(self, reply, wire_size)
        wire = reply.encode()
        assert len(wire) == wire_size
        self.network.send(self.host_id, self.host_id, "giop", wire, len(wire))

    monkeypatch.setattr(Listener, "admit", admit)
    monkeypatch.setattr(ORB, "_complete", complete)


@pytest.fixture(scope="module")
def oracle():
    with pytest.MonkeyPatch.context() as patch:
        force_wire(patch)
        return {script.__name__: script() for script in SCRIPTS}


def differences(change, oracle):
    return [key for key in oracle if change[key] != oracle[key]]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
def test_collocated_run_equals_the_wire_run(script, oracle):
    world, change = script()
    wire_world, wire = oracle[script.__name__]
    assert differences(change, wire) == []
    # Which arm was which: the fabric carried every local call of the
    # oracle's and none of this run's, which is what the kernel events
    # saved are (a delivery per request and per reply).
    assert wire_world.net.metrics.get("net.local") > 0
    assert world.net.metrics.get("net.local") == 0
    assert world.env._eid < wire_world.env._eid


def test_the_scripts_do_what_they_say(oracle):
    _, run = every_shape()
    outcomes = {label: outcome for label, outcome, _ in run["results"]}
    assert outcomes["void"] == ("ok", None)
    assert outcomes["several"] == ("ok", "a2b")
    assert outcomes["mutable argument"] == ("ok", 1006)
    assert run["caller's list"] == [1, 2, 3]
    assert run["servant lists"] == [[1, 2, 3, 1000]]
    assert run["servant got the caller's list"] == [False]
    assert outcomes["out"] == ("ok", ("a", "bc"))
    assert outcomes["inout"] == ("ok", (12, 5))
    assert outcomes["declared"] == ("Declared", {"why": "no", "code": 7})
    assert outcomes["undeclared"][0] == "UNKNOWN"
    assert outcomes["unregistered"][0] == "UNKNOWN"
    assert outcomes["system"] == ("TRANSIENT", "try later", 3, 1)
    assert outcomes["servant bug"][0] == "UNKNOWN"
    assert outcomes["generator"] == ("ok", "c!")
    assert outcomes["late generator"] == ("ok", "d!")
    assert outcomes["oneway"] == ("ok", None)
    assert run["notes"] == ["n1", "n2", "n2"]
    assert [outcomes[k][0] for k in ("no adapter", "no key", "no operation",
                                     "no method", "wrong count", "wrong type",
                                     "negative timeout")] == \
        ["OBJECT_NOT_EXIST", "OBJECT_NOT_EXIST", "BAD_OPERATION",
         "NO_IMPLEMENT", "BAD_PARAM", "BAD_PARAM", "BAD_PARAM"]
    assert outcomes["deadline"][0] == "TIMEOUT"
    assert outcomes["crash mid-dispatch"][0] == "COMM_FAILURE"
    assert outcomes["call on a dead host"][0] == "TIMEOUT"
    assert outcomes["after restart"] == ("ok", "y")
    assert outcomes["restart mid-dispatch"][0] == "COMM_FAILURE"
    assert outcomes["at the end"] == ("ok", "z")
    # One reply and one request dropped on the dead host, counted where
    # Network.send counts a dead sender; the slow servant's reply and
    # the one that outlived the restart came late.
    assert run["dropped on a dead host"] == 2
    assert run["orb counters"]["orb.late_replies"] == 2
    assert run["orb counters"]["orb.timeouts"] == 2

    _, run = queued()
    times = {label: when for label, _, when in run["results"]}
    assert times["holds the slot"] == pytest.approx(1.0)
    assert times["queued"] == pytest.approx(2.0)     # 0.25 + 0.75 + 1.0
    assert max(run["dispatch depths"]) >= 2

    _, run = shed()
    outcomes = {label: outcome for label, outcome, _ in run["results"]}
    assert outcomes["shed"][0] == "TRANSIENT"
    assert outcomes["shed"][2] == MINOR_SHED
    assert outcomes["admitted again"] == ("ok", "c")
    assert run["orb counters"]["orb.shed"] == 2
    assert run["orb counters"]["orb.shed.oneway"] == 1
    assert run["notes"] == []


# -- mutants -----------------------------------------------------------------
# Each re-creates one plausible wrong version of the collocated branches
# by wrapping the two hand-overs, and the comparison above must catch it.

def from_requester():
    """True inside a ``Listener.admit`` wrapper that was called by the
    requester's collocated branch, not by ``on_message``."""
    return sys._getframe(2).f_code.co_name == "_send_requests"


def mutant_servant_receives_the_callers_object(monkeypatch):
    """The arguments skip the codec: the servant is handed the very
    objects the caller passed."""
    real_send, real_finish = ORB._send_requests, Listener._dispatch_finish
    passed = {}

    def send(self, iors, odef, args, *rest):
        passed[self._next_request_id + 1] = tuple(args)
        return real_send(self, iors, odef, args, *rest)

    def finish(self, ev):
        request, client, odef, method, args, info = ev._value
        if client == self.host_id:
            args = passed.get(request.request_id, args)
        ev._value = (request, client, odef, method, args, info)
        real_finish(self, ev)

    monkeypatch.setattr(ORB, "_send_requests", send)
    monkeypatch.setattr(Listener, "_dispatch_finish", finish)


def mutant_admit_skipped(monkeypatch):
    """The requester dispatches straight away: no admission bound, no
    in-flight count, no ``receive_request``."""
    real_admit = Listener.admit

    def admit(self, request, src, wire_size):
        if from_requester():
            self.dispatch(request, src, None)
        else:
            real_admit(self, request, src, wire_size)

    monkeypatch.setattr(Listener, "admit", admit)


def mutant_client_interceptors_skipped(monkeypatch):
    """A call that stays on the host is not worth a client hook."""
    real_send = ORB._send_requests

    def send(self, iors, odef, args, *rest):
        if all(ior.host_id == self.host_id for ior in iors):
            held, self._client_hooks = self._client_hooks, None
            try:
                return real_send(self, iors, odef, args, *rest)
            finally:
                self._client_hooks = held
        return real_send(self, iors, odef, args, *rest)

    monkeypatch.setattr(ORB, "_send_requests", send)


def mutant_server_interceptors_skipped(monkeypatch):
    """The listener runs no hooks for a request that never crossed the
    fabric."""
    real_admit = Listener.admit

    def admit(self, request, src, wire_size):
        if not from_requester():
            return real_admit(self, request, src, wire_size)
        held, self.hooks = self.hooks, None
        try:
            real_admit(self, request, src, wire_size)
        finally:
            self.hooks = held

    monkeypatch.setattr(Listener, "admit", admit)


def mutant_trace_slot_dropped(monkeypatch):
    """The request is built without its service context, so the server
    span starts a trace of its own."""
    real_admit = Listener.admit

    def admit(self, request, src, wire_size):
        if from_requester():
            request.service_context = ()
        real_admit(self, request, src, wire_size)

    monkeypatch.setattr(Listener, "admit", admit)


def mutant_reply_settled_on_a_dead_host(monkeypatch):
    """The listener settles a collocated reply without asking whether
    its host is still up."""
    real_reply = Listener.reply

    def reply(self, client, request, status, body, info=None):
        held, self.host = self.host, SimpleNamespace(alive=True)
        try:
            real_reply(self, client, request, status, body, info)
        finally:
            self.host = held

    monkeypatch.setattr(Listener, "reply", reply)


@pytest.mark.parametrize("mutant", [
    mutant_servant_receives_the_callers_object,
    mutant_admit_skipped,
    mutant_client_interceptors_skipped,
    mutant_server_interceptors_skipped,
    mutant_trace_slot_dropped,
    mutant_reply_settled_on_a_dead_host,
], ids=lambda m: m.__name__)
def test_named_mutant_fails_the_comparison(mutant, oracle, monkeypatch):
    mutant(monkeypatch)
    found = []
    for script in SCRIPTS:
        _, change = script()
        found += differences(change, oracle[script.__name__][1])
    assert found

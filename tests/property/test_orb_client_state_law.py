"""The client ORB's call state, bounded by the calls in flight.

A client ORB keeps one entry per two-way call in ``_pending`` and one
reply deadline per call in ``_deadline_heap``, swept by a single kernel
timer.  The state machine drives a client ORB (``h1``) against a
server ORB (``hub``) whose servant holds every call on a gate of its
own, so replies come back in any order, or never:

- ``invoke(timeout)`` calls the gated servant with no timeout (the
  60 s reply deadline), ``0.0``, ``0.5`` or ``2.0``;
- ``invoke_negative(timeout)`` calls it with a negative timeout;
- ``invoke_lost(timeout)`` calls an object on ``h0``, which runs no
  ORB, so the request is dropped at delivery;
- ``answer(k)`` opens call *k*'s gate;
- ``crash`` and ``restart`` take the client host down and up;
- ``advance(dt)`` moves time, draining the instant it ends on or
  stopping after the first event of it.

The law:

- every call settles exactly once, and by its deadline;
- a ``TIMEOUT`` settles at exactly issue time + its timeout, an ok
  reply carries the call's argument, and a crash settles every call in
  flight with ``COMM_FAILURE``;
- a negative timeout is refused with ``BAD_PARAM``, leaving nothing
  pending, no deadline entry and no sweeper armed;
- a reply to a call that was in flight at a crash, landing after the
  restart, adds exactly one to ``orb.late_replies`` and settles
  nothing;
- after every rule the heap is empty or its top is a pending call, an
  empty ``_pending`` means an empty heap, and at most one kernel
  ``Timeout`` carries the ORB's current ``_deadline_token``;
- sweeps <= distinct deadline horizons reached + crashes.  A sweep is
  a sweeper firing the ORB acts on: it carries the current token, or
  it changes the token or the armed instant.  The horizons ahead of the
  sweeper are the deadlines (issue time + timeout) of the calls pending
  at the last sweep and of those issued since; a sweep reaches those
  at or before its instant.  So a sweep is paid for by a horizon no
  earlier sweep reached, however many calls share it, and a horizon
  whose calls were all answered before the last sweep pays for none.

Five named mutants must each fail it: the two halves of the bound, a
negative timeout treated as none, the sweeper re-arming for ``heap[0]``
whatever it is, and the stale-token check removed.
"""

from __future__ import annotations

from heapq import heappop

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.obs.names import ORB_LATE_REPLIES
from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import BAD_PARAM, COMM_FAILURE, TIMEOUT
from repro.orb.ior import IOR
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment, Timeout
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

IFACE = InterfaceDef("IDL:test/Gated:1.0", "Gated", operations=[
    op("hold", [("k", tc_long)], tc_long),
])
HOLD = IFACE.operations["hold"]

SETTINGS = settings(max_examples=200, stateful_step_count=40,
                    deadline=None, derandomize=True,
                    report_multiple_bugs=False)
#: a mutant only has to fail; its shrunk counterexample is not read.
MUTANT_SETTINGS = settings(SETTINGS, phases=[Phase.generate])

timeouts = st.sampled_from([None, 0.0, 0.5, 2.0])


class GatedServant(Servant):
    """Answers call *k* once gate *k* opens."""
    _interface = IFACE

    def __init__(self, gates: dict) -> None:
        self.gates = gates

    def hold(self, k):
        yield self.gates[k]
        return k


class Call:
    __slots__ = ("k", "issued", "timeout", "event", "request_id", "settled")

    def __init__(self, k: int, issued: float, timeout: float) -> None:
        self.k = k
        self.event = None
        self.request_id = None
        self.issued = issued
        self.timeout = timeout
        #: (time, ok, value) per settlement; the law allows one.
        self.settled: list = []


class ClientStateMachine(RuleBasedStateMachine):
    orb_cls = ORB
    #: request ids of the replies to crashed calls that landed after the
    #: restart, over every run of one machine class (see ``machine``)
    late_after_restart: list

    def __init__(self) -> None:
        super().__init__()
        self.env = Environment()
        net = Network(self.env, star(2), rngs=RngRegistry(3))
        server = ORB(self.env, net, "hub")
        self.client = self.orb_cls(self.env, net, "h1")
        self.host = self.client.host
        self.gates: dict = {}
        self.ior = server.adapter("root").activate(GatedServant(self.gates))
        self.silent = IOR(IFACE.repo_id, "h0", "root", "missing")
        self.calls: list[Call] = []
        #: request ids of the calls a crash settled
        self.crashed: set[int] = set()
        #: request id -> deadline instant, per call issued
        self.deadlines: dict[int, float] = {}
        #: deadlines of the calls ahead of the sweeper
        self.ahead: set[float] = set()
        self.reached = self.sweeps = self.crashes = 0
        self._count_sweeps()
        listener = self.client.listener
        complete = listener._complete

        def observed(reply, wire_size=0):
            if reply.request_id not in self.crashed:
                complete(reply, wire_size)
                return
            late = self.client.metrics.counter(ORB_LATE_REPLIES)
            before = (late.value, self._settlements(),
                      dict(self.client._pending))
            complete(reply, wire_size)
            after = (late.value - 1, self._settlements(),
                     dict(self.client._pending))
            assert after == before, \
                f"late reply {reply.request_id}: {before} -> {after}"
            self.late_after_restart.append(reply.request_id)

        listener._complete = observed

    def _count_sweeps(self) -> None:
        client = self.client
        sweep = client._sweep_deadlines

        def counted(ev):
            before = (client._deadline_token, client._deadline_armed_at)
            live = ev._value == client._deadline_token
            sweep(ev)
            if live or before != (client._deadline_token,
                                  client._deadline_armed_at):
                now = self.env.now
                self.sweeps += 1
                self.reached += sum(1 for when in self.ahead if when <= now)
                self.ahead = {self.deadlines[rid]
                              for rid in client._pending}

        # invoke and the sweeper arm ``self._sweep_deadlines``
        client._sweep_deadlines = counted

    def _settlements(self) -> int:
        return sum(len(call.settled) for call in self.calls)

    def _sweepers(self) -> list:
        client = self.client
        return [ev for *_, ev in self.env._queue
                if isinstance(ev, Timeout) and ev.callbacks
                and client._sweep_deadlines in ev.callbacks
                and ev._value == client._deadline_token]

    def _invoke(self, ior, timeout) -> None:
        env = self.env
        call = Call(len(self.calls), env.now,
                    self.client.reply_deadline if timeout is None
                    else timeout)
        self.calls.append(call)
        self.gates[call.k] = env.event()
        event = call.event = self.client.invoke(ior, HOLD, (call.k,),
                                                timeout=timeout)
        call.request_id = self.client._next_request_id
        self.deadlines[call.request_id] = call.issued + call.timeout
        self.ahead.add(call.issued + call.timeout)
        event.callbacks.append(
            lambda ev: call.settled.append((env.now, ev._ok, ev._value)))

    # -- rules -------------------------------------------------------------
    @precondition(lambda self: self.host.alive)
    @rule(timeout=timeouts)
    def invoke(self, timeout):
        self._invoke(self.ior, timeout)

    @precondition(lambda self: self.host.alive)
    @rule(timeout=timeouts)
    def invoke_lost(self, timeout):
        self._invoke(self.silent, timeout)

    @precondition(lambda self: self.host.alive)
    @rule(timeout=st.sampled_from([-0.5, -60.0]))
    def invoke_negative(self, timeout):
        client = self.client
        state = (dict(client._pending), list(client._deadline_heap),
                 client._deadline_armed_at, client._deadline_token,
                 self._sweepers(), len(self.env._queue))
        try:
            client.invoke(self.ior, HOLD, (-1,), timeout=timeout)
        except BAD_PARAM:
            pass
        else:
            raise AssertionError(f"timeout={timeout} was not refused")
        assert state == (dict(client._pending),
                         list(client._deadline_heap),
                         client._deadline_armed_at, client._deadline_token,
                         self._sweepers(), len(self.env._queue)), \
            "a refused call left state behind"

    @precondition(lambda self: any(not gate.triggered
                                   for gate in self.gates.values()))
    @rule(data=st.data())
    def answer(self, data):
        k = data.draw(st.sampled_from(
            [k for k, gate in self.gates.items() if not gate.triggered]))
        self.gates[k].succeed()

    @precondition(lambda self: self.host.alive)
    @rule()
    def crash(self):
        in_flight = [call for call in self.calls if not call.event.triggered]
        self.crashed.update(call.request_id for call in in_flight)
        self.crashes += 1
        self.host.crash()
        for call in in_flight:
            event = call.event
            assert event.triggered and isinstance(event._value,
                                                  COMM_FAILURE), \
                f"call {call.k} in flight at the crash: {event._value!r}"

    @precondition(lambda self: not self.host.alive)
    @rule()
    def restart(self):
        self.host.restart()

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 2.5]), drain=st.booleans())
    def advance(self, dt, drain):
        env = self.env
        until = env.now + dt
        if drain:
            env.run(until=until)
            return
        while env.peek() < until:
            env.step()
        if env.peek() == until:
            env.step()          # the first event of the last instant only

    # -- the law -----------------------------------------------------------
    @invariant()
    def every_call_settles_once_and_rightly(self):
        now = self.env.now
        for call in self.calls:
            assert len(call.settled) <= 1, \
                f"call {call.k} settled twice: {call.settled}"
            if call.issued + call.timeout < now:
                assert call.settled, f"call {call.k} outlived its deadline"
            if not call.settled:
                continue
            when, ok, value = call.settled[0]
            if ok:
                assert value == call.k
            elif isinstance(value, TIMEOUT):
                assert when == call.issued + call.timeout, \
                    f"call {call.k} timed out at {when}"
            else:
                assert isinstance(value, COMM_FAILURE), value

    @invariant()
    def heap_top_is_pending(self):
        heap, pending = self.client._deadline_heap, self.client._pending
        assert not heap or heap[0][1] in pending, \
            f"answered call {heap[0][1]} heads the deadline heap"
        assert pending or not heap, \
            f"nothing pending, {len(heap)} deadline entries held"

    @invariant()
    def one_live_sweeper(self):
        live = self._sweepers()
        assert len(live) <= 1, f"{len(live)} live sweepers"

    @invariant()
    def one_sweep_per_horizon(self):
        assert self.sweeps <= self.reached + self.crashes, \
            (f"{self.sweeps} sweeps for {self.reached} deadline "
             f"horizons reached and {self.crashes} crashes")

    def teardown(self):
        # Past every deadline: every call has settled, nothing is held.
        self.env.run(until=self.env.now + self.client.reply_deadline + 1)
        assert all(len(call.settled) == 1 for call in self.calls)
        assert not self.client._pending
        assert not self.client._deadline_heap
        self.one_sweep_per_horizon()


def machine(orb_cls=ORB) -> type:
    """The state machine over *orb_cls*, with a late-reply log of its own."""
    return type(orb_cls.__name__ + "Machine", (ClientStateMachine,),
                {"orb_cls": orb_cls, "late_after_restart": []})


def test_orb_client_state_law():
    law = machine()
    run_state_machine_as_test(law, settings=SETTINGS)
    assert law.late_after_restart, \
        "no reply landed after a crash and restart"


# -- mutants -----------------------------------------------------------------

class LazyPruning(ORB):
    """``_complete`` leaves answered entries for the sweeper to find on
    top, a reply deadline after the reply."""

    def _complete(self, reply, wire_size=0):
        heap = list(self._deadline_heap)
        super()._complete(reply, wire_size)
        self._deadline_heap[:] = heap


class CrashKeepsTheHeap(ORB):
    """A crash empties ``_pending`` but leaves its deadlines to the next
    sweep."""

    def _on_host_crash(self, host):
        heap = list(self._deadline_heap)
        super()._on_host_crash(host)
        self._deadline_heap[:] = heap


class NegativeTimeoutAsNone(ORB):
    """A negative ``timeout=`` falls back to the default deadline instead
    of being refused."""

    def invoke(self, ior, odef, args, timeout=None, meter=None):
        if timeout is not None and timeout < 0:
            timeout = None
        return super().invoke(ior, odef, args, timeout=timeout, meter=meter)


class RearmForTheTop(ORB):
    """The sweeper expires the overdue calls and re-arms for ``heap[0]``
    whatever it is, a call answered out of order included (the sweeper
    before PR 24 did this for every answered call)."""

    def _sweep_deadlines(self, ev):
        if ev._value != self._deadline_token:
            return
        heap = self._deadline_heap
        now = self.env.now
        while heap and heap[0][0] <= now:
            _when, rid, op_name, host_id, deadline = heappop(heap)
            entry = self._pending.pop(rid, None)
            if entry is not None:
                entry[0].fail(TIMEOUT(f"no reply to {op_name}")).defused()
        if heap:
            self._deadline_armed_at = heap[0][0]
            self._deadline_token += 1
            Timeout(self.env, heap[0][0] - now,
                    self._deadline_token).callbacks.append(
                self._sweep_deadlines)
        else:
            self._deadline_armed_at = float("inf")


class NoStaleTokenCheck(ORB):
    """A preempted sweeper timer sweeps and re-arms as if it were live."""

    def _sweep_deadlines(self, ev):
        ev._value = self._deadline_token
        super()._sweep_deadlines(ev)


@pytest.mark.parametrize("mutant", [LazyPruning, CrashKeepsTheHeap,
                                    NegativeTimeoutAsNone, RearmForTheTop,
                                    NoStaleTokenCheck],
                         ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant):
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine(mutant), settings=MUTANT_SETTINGS)

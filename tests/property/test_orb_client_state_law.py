"""The client ORB's call state, bounded by the calls in flight.

A client ORB keeps one entry per two-way call in ``_pending`` and one
reply deadline per call in ``_deadline_heap``, swept by a single kernel
timer.  The state machine drives a client ORB (``h1``) against a
server ORB (``hub``) whose servant holds every call on a gate of its
own, so replies come back in any order, or never:

- ``invoke(timeout)`` calls the gated servant with no timeout (the
  60 s reply deadline), ``0.0``, ``0.5`` or ``2.0``;
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
- after every rule the heap is empty or its top is a pending call, an
  empty ``_pending`` means an empty heap, and at most one kernel
  ``Timeout`` carries the ORB's current ``_deadline_token``.

Two named mutants -- the two halves of the bound -- must each fail it.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import COMM_FAILURE, TIMEOUT
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
    __slots__ = ("k", "issued", "timeout", "event", "settled")

    def __init__(self, k: int, issued: float, timeout: float) -> None:
        self.k = k
        self.event = None
        self.issued = issued
        self.timeout = timeout
        #: (time, ok, value) per settlement; the law allows one.
        self.settled: list = []


class ClientStateMachine(RuleBasedStateMachine):
    orb_cls = ORB

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

    def _invoke(self, ior, timeout) -> None:
        env = self.env
        call = Call(len(self.calls), env.now,
                    self.client.reply_deadline if timeout is None
                    else timeout)
        self.calls.append(call)
        self.gates[call.k] = env.event()
        event = call.event = self.client.invoke(ior, HOLD, (call.k,),
                                                timeout=timeout)
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
        client = self.client
        live = [ev for *_, ev in self.env._queue
                if isinstance(ev, Timeout) and ev.callbacks
                and client._sweep_deadlines in ev.callbacks
                and ev._value == client._deadline_token]
        assert len(live) <= 1, f"{len(live)} live sweepers"

    def teardown(self):
        # Past every deadline: every call has settled, nothing is held.
        self.env.run(until=self.env.now + self.client.reply_deadline + 1)
        assert all(len(call.settled) == 1 for call in self.calls)
        assert not self.client._pending
        assert not self.client._deadline_heap


def test_orb_client_state_law():
    run_state_machine_as_test(ClientStateMachine, settings=SETTINGS)


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


@pytest.mark.parametrize("mutant", [LazyPruning, CrashKeepsTheHeap],
                         ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant):
    machine = type(mutant.__name__ + "Machine", (ClientStateMachine,),
                   {"orb_cls": mutant})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=MUTANT_SETTINGS)

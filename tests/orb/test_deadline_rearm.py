"""Regression: deadline-heap sweeper re-arm duplication (ISSUE 7).

The ORB keeps ONE armed sweeper timer for the earliest pending
deadline.  Pre-fix, arming an earlier deadline did not disarm the
later timer, and the preempted timer — the kernel cannot cancel
timers — performed a *full re-arm* when it finally fired.  Under
steady traffic every short-deadline call that preempted the sweeper
therefore left one extra live timer behind, each of which re-armed
again at expiry: the kernel heap grew one stale sweeper per
preemption, exactly the per-call-timer leak the deadline heap was
built to remove (and, transitively, re-arm churn that could starve
the event loop around mass-expiry instants).

The fix versions the sweeper with a token: arming bumps it; a firing
timer carrying a stale token is a no-op.  These tests pin both the
leak bound and the timing semantics around preemption.
"""

import pytest

from repro.orb.core import InterfaceDef, ORB, op
from repro.orb.exceptions import BAD_PARAM, TIMEOUT
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

IFACE = InterfaceDef("IDL:test/Void:1.0", "Void", operations=[
    op("ping", [("x", tc_long)], tc_long),
])
PING = IFACE.operations["ping"]


def make_client():
    env = Environment()
    net = Network(env, star(2), rngs=RngRegistry(9))
    client = ORB(env, net, "h1")
    client.reply_deadline = None
    # Nothing listens on h0: every request is dropped at delivery and
    # every pending entry lives until its deadline sweeps it.
    return env, net, client


def silent_ior(client):
    from repro.orb.ior import IOR
    return IOR(IFACE.repo_id, "h0", "root", "missing")


class TestSweeperDuplication:
    def test_preempted_sweepers_do_not_accumulate(self):
        env, net, client = make_client()
        ior = silent_ior(client)
        # Arm a long deadline first, then a longer backstop entry.
        long_ev = client.invoke(ior, PING, (0,), timeout=60.0)
        backstop = client.invoke(ior, PING, (1,), timeout=120.0)

        def churn():
            # 100 short calls, each preempting the armed 60 s sweeper.
            for i in range(100):
                client.invoke(ior, PING, (i,), timeout=0.1)
                yield env.timeout(0.2)

        env.process(churn())
        env.run(until=61.0)
        # All shorts and the 60 s call timed out; the backstop remains.
        assert not long_ev.ok and isinstance(long_ev.value, TIMEOUT)
        assert not backstop.triggered
        assert net.metrics.get("orb.timeouts") == 101
        # THE regression: at t=61 the only kernel events left are the
        # live sweeper armed for t=120 (plus nothing else — traffic is
        # done).  Pre-fix, each of the 100 preempted timers fired at
        # t≈60, saw the non-empty heap, and re-armed ANOTHER sweeper:
        # 101 timers pending here instead of 1.
        assert len(env._queue) <= 2
        env.run(until=121.0)
        assert not backstop.ok and isinstance(backstop.value, TIMEOUT)
        assert net.metrics.get("orb.timeouts") == 102

    def test_armed_at_tracks_earliest_deadline(self):
        env, _net, client = make_client()
        ior = silent_ior(client)
        client.invoke(ior, PING, (0,), timeout=30.0)
        assert client._deadline_armed_at == 30.0
        client.invoke(ior, PING, (1,), timeout=5.0)
        assert client._deadline_armed_at == 5.0   # preempted earlier
        client.invoke(ior, PING, (2,), timeout=10.0)
        assert client._deadline_armed_at == 5.0   # later: no re-arm
        env.run(until=6.0)
        # After the 5 s sweep the sweeper re-armed for the next entry.
        assert client._deadline_armed_at == 10.0
        env.run(until=31.0)
        assert client._deadline_armed_at == float("inf")

    def test_sweep_after_preemption_still_times_out_later_entry(self):
        env, _net, client = make_client()
        ior = silent_ior(client)
        slow = client.invoke(ior, PING, (0,), timeout=3.0)
        fast = client.invoke(ior, PING, (1,), timeout=0.5)
        env.run(until=1.0)
        assert not fast.ok and isinstance(fast.value, TIMEOUT)
        assert not slow.triggered           # not swept early
        env.run(until=4.0)
        assert not slow.ok and isinstance(slow.value, TIMEOUT)
        assert env.now >= 3.0


class TestNegativeTimeout:
    """Regression: ``invoke(..., timeout=-1.0)`` used to register and
    send the call, move ``_deadline_armed_at`` into the past and *then*
    fail inside ``Timeout()`` — so no sweeper was armed and no later
    deadline was ever earlier than the armed one: reply deadlines were
    off for good on that ORB."""

    def test_refused_before_anything_is_registered_or_sent(self):
        env, net, client = make_client()
        ior = silent_ior(client)
        with pytest.raises(BAD_PARAM):
            client.invoke(ior, PING, (0,), timeout=-1.0)
        assert client._pending == {}
        assert client._deadline_heap == []
        assert net.metrics.get("orb.requests") == 0
        assert net.metrics.get("net.messages") == 0
        # The later call whose reply is lost still times out on time.
        lost = client.invoke(ior, PING, (1,), timeout=2.0)
        env.run(until=2.5)
        assert not lost.ok and isinstance(lost.value, TIMEOUT)
        assert client._pending == {}

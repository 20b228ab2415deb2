"""Regression: the reply-deadline sweeper woke once per call.

``ORB._sweep_deadlines`` re-armed for ``heap[0]`` whatever it was, and
in steady state ``heap[0]`` is a call answered one deadline ago: every
two-way call cost one more kernel timer, one callback and one heap pop
a deadline after its reply — the per-call timer the heap exists to
avoid (``rpc_mix``: 0.79 of 4.79 kernel events per call).  The sweeper
now drops answered entries from the top of the heap before it re-arms,
so it fires about once per deadline horizon while traffic flows and not
at all once the last call is answered.
"""

from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import TIMEOUT
from repro.orb.ior import IOR
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

IFACE = InterfaceDef("IDL:test/Ping:1.0", "Ping", operations=[
    op("ping", [("x", tc_long)], tc_long),
])
PING = IFACE.operations["ping"]


class Pinger(Servant):
    _interface = IFACE

    def ping(self, x):
        return x


def make_rig(monkeypatch):
    env = Environment()
    net = Network(env, star(2), rngs=RngRegistry(9))
    server = ORB(env, net, "hub")
    client = ORB(env, net, "h1")
    ior = server.adapter("root").activate(Pinger())
    sweeps = []
    real_sweep = ORB._sweep_deadlines

    def sweep(self, ev):
        sweeps.append(env.now)
        real_sweep(self, ev)

    monkeypatch.setattr(ORB, "_sweep_deadlines", sweep)
    return env, client, ior, sweeps


def test_answered_calls_leave_one_sweep_per_horizon(monkeypatch):
    env, client, ior, sweeps = make_rig(monkeypatch)
    answered = []

    def traffic():
        # 200 calls over four 1 s horizons, each answered within a
        # millisecond or so.
        for i in range(200):
            answered.append((yield client.invoke(ior, PING, (i,),
                                                 timeout=1.0)))
            yield env.timeout(0.02)

    env.process(traffic())
    env.run(until=10.0)
    assert answered == list(range(200))
    # One firing per horizon the traffic spans, not one per call (200).
    assert 4 <= len(sweeps) <= 6
    assert client._deadline_heap == []
    assert client._deadline_armed_at == float("inf")


def test_lost_reply_behind_answered_entries_times_out_on_time(monkeypatch):
    env, client, ior, sweeps = make_rig(monkeypatch)
    # Nothing is activated under this key on h0 — and h0 runs no ORB, so
    # the request is dropped at delivery and the reply never comes.
    silent = IOR(IFACE.repo_id, "h0", "root", "missing")
    failed_at = []

    def traffic():
        for i in range(10):
            yield client.invoke(ior, PING, (i,), timeout=5.0)
            yield env.timeout(0.1)
        lost = client.invoke(silent, PING, (0,), timeout=5.0)
        lost.callbacks.append(lambda ev: failed_at.append(env.now))
        deadline = env.now + 5.0
        for i in range(10):
            yield client.invoke(ior, PING, (i,), timeout=5.0)
            yield env.timeout(0.1)
        return lost, deadline

    lost, deadline = env.run(until=env.process(traffic()))
    env.run(until=20.0)
    assert not lost.ok and isinstance(lost.value, TIMEOUT)
    assert failed_at == [deadline]
    # The first call's deadline, then straight to the lost call's: the
    # nine answered entries between them armed nothing.
    assert sweeps == [5.0, deadline]
    assert client._deadline_heap == []

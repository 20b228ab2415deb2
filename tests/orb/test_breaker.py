"""Client-side circuit breaker: state machine and retry integration."""

import pytest

from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import (BAD_OPERATION, MINOR_BREAKER_OPEN,
                                  SystemException, TRANSIENT)
from repro.orb.retry import (BreakerRegistry, CircuitBreaker, RetryPolicy,
                             call_with_retry)
from repro.orb.typecodes import tc_long
from repro.sim.faults import FaultInjector
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

IFACE = InterfaceDef("IDL:test/Counter:1.0", "Counter", operations=[
    op("bump", [("x", tc_long)], tc_long),
])
BUMP = IFACE.operations["bump"]


class CounterServant(Servant):
    _interface = IFACE

    def __init__(self):
        self.calls = 0

    def bump(self, x):
        self.calls += 1
        return x + 1


def make_rig():
    env = Environment()
    net = Network(env, star(3), rngs=RngRegistry(11))
    server = ORB(env, net, "h0")
    client = ORB(env, net, "h1")
    servant = CounterServant()
    ior = server.adapter("root").activate(servant)
    return env, net, server, client, servant, ior


def advance(env, dt):
    env.run(until=env.timeout(dt))


FAST = RetryPolicy(attempts=3, timeout=0.5, backoff=0.1,
                   backoff_factor=1.0, jitter=False)


class TestStateMachine:
    def test_param_validation(self):
        env, net, _, client, _, _ = make_rig()
        with pytest.raises(ValueError):
            CircuitBreaker(client, "h0", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(client, "h0", reset_timeout=0)
        with pytest.raises(ValueError):
            CircuitBreaker(client, "h0", half_open_probes=0)

    def test_opens_at_threshold(self):
        env, net, _, client, _, _ = make_rig()
        breaker = CircuitBreaker(client, "h0", failure_threshold=3)
        for _ in range(2):
            breaker.on_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.on_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.transitions == [(0.0, "closed", "open")]
        assert net.metrics.get("breaker.opened") == 1

    def test_success_resets_failure_count(self):
        env, net, _, client, _, _ = make_rig()
        breaker = CircuitBreaker(client, "h0", failure_threshold=3)
        breaker.on_failure()
        breaker.on_failure()
        breaker.on_success()
        assert breaker.failures == 0
        breaker.on_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_fast_fails_until_reset_timeout(self):
        env, net, _, client, _, _ = make_rig()
        breaker = CircuitBreaker(client, "h0", failure_threshold=1,
                                 reset_timeout=5.0)
        breaker.on_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.fast_fails == 2
        assert net.metrics.get("breaker.fast_fails") == 2
        exc = breaker.reject_exception()
        assert isinstance(exc, TRANSIENT)
        assert exc.minor == MINOR_BREAKER_OPEN
        advance(env, 5.0)
        assert breaker.allow()  # now a half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_probe_budget(self):
        env, net, _, client, _, _ = make_rig()
        breaker = CircuitBreaker(client, "h0", failure_threshold=1,
                                 reset_timeout=1.0, half_open_probes=2)
        breaker.on_failure()
        advance(env, 1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_half_open_failure_reopens_and_rearms(self):
        env, net, _, client, _, _ = make_rig()
        breaker = CircuitBreaker(client, "h0", failure_threshold=1,
                                 reset_timeout=2.0)
        breaker.on_failure()          # t=0: open
        advance(env, 2.0)
        assert breaker.allow()        # t=2: half-open probe
        breaker.on_failure()          # probe failed: re-open
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()    # timer re-armed from t=2
        advance(env, 2.0)
        assert breaker.allow()
        breaker.on_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert [(f, t) for _, f, t in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert net.metrics.get("breaker.closed") == 1
        assert net.metrics.get("breaker.half_open") == 2


class TestRetryIntegration:
    def test_breaker_opens_on_dead_peer_then_fast_fails(self):
        env, net, server, client, servant, ior = make_rig()
        FaultInjector(env, net.topology).cut_link("h0", "hub")
        breaker = CircuitBreaker(client, "h0", failure_threshold=3,
                                 reset_timeout=30.0)
        with pytest.raises(SystemException):
            call_with_retry(client, ior, BUMP, (1,), policy=FAST,
                            breaker=breaker)
        assert breaker.state == CircuitBreaker.OPEN
        requests_on_wire = net.metrics.get("orb.requests")
        # Open breaker: the retry loop fast-fails locally, nothing is
        # marshalled, nothing hits the wire.
        with pytest.raises(TRANSIENT) as exc_info:
            call_with_retry(client, ior, BUMP, (2,), policy=FAST,
                            breaker=breaker)
        assert exc_info.value.minor == MINOR_BREAKER_OPEN
        assert net.metrics.get("orb.requests") == requests_on_wire
        assert breaker.fast_fails == FAST.attempts

    def test_breaker_closes_after_peer_heals(self):
        env, net, server, client, servant, ior = make_rig()
        injector = FaultInjector(env, net.topology)
        injector.cut_link("h0", "hub")
        breaker = CircuitBreaker(client, "h0", failure_threshold=3,
                                 reset_timeout=5.0)
        with pytest.raises(SystemException):
            call_with_retry(client, ior, BUMP, (1,), policy=FAST,
                            breaker=breaker)
        injector.heal_link("h0", "hub")
        advance(env, 5.0)
        result = call_with_retry(client, ior, BUMP, (10,), policy=FAST,
                                 breaker=breaker)
        assert result == 11
        assert breaker.state == CircuitBreaker.CLOSED
        assert [(f, t) for _, f, t in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_non_retryable_answer_counts_as_success(self):
        env, net, server, client, servant, ior = make_rig()
        breaker = CircuitBreaker(client, "h0", failure_threshold=3)
        breaker.on_failure()
        breaker.on_failure()
        missing = op("no_such_op", [], tc_long)
        with pytest.raises(BAD_OPERATION):
            call_with_retry(client, ior, missing, (), policy=FAST,
                            breaker=breaker)
        # A definitive error reply proves the peer is alive.
        assert breaker.failures == 0
        assert breaker.state == CircuitBreaker.CLOSED

    def test_registry_isolates_peers(self):
        env, net, server, client, servant, ior = make_rig()
        registry = BreakerRegistry(client, failure_threshold=2)
        b0 = registry.breaker_for("h0")
        assert registry.breaker_for("h0") is b0
        b2 = registry.breaker_for("h2")
        b0.on_failure()
        b0.on_failure()
        assert b0.state == CircuitBreaker.OPEN
        assert b2.state == CircuitBreaker.CLOSED
        assert b2.failure_threshold == 2
        assert set(registry.breakers()) == {"h0", "h2"}

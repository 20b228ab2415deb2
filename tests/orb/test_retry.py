"""Tests for the retry policy layer."""

import pytest

from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import TIMEOUT, TRANSIENT
from repro.orb.retry import RetryPolicy, invoke_with_retry
from repro.orb.typecodes import tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import LinkClass, Topology

FLAKY = InterfaceDef("IDL:test/Flaky:1.0", "Flaky", operations=[
    op("get", [], tc_long),
    op("fail_n", [("n", tc_long)], tc_long),
])


class FlakyServant(Servant):
    _interface = FLAKY

    def __init__(self):
        self.calls = 0
        self.failures_left = 0

    def get(self):
        self.calls += 1
        return self.calls

    def fail_n(self, n):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise TRANSIENT("not yet")
        return self.calls


def make_rig(loss=0.0):
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    topo.add_link("a", "b", LinkClass("flaky", latency=0.001,
                                     bandwidth=1e6, loss=loss))
    env = Environment()
    net = Network(env, topo, rngs=RngRegistry(5))
    server = ORB(env, net, "a")
    client = ORB(env, net, "b")
    servant = FlakyServant()
    ior = server.adapter("root").activate(servant)
    return env, client, servant, ior


class TestRetryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)

    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0.0}, {"timeout": -1.0},
        {"backoff": 0.0}, {"backoff": -0.5},
        {"backoff_factor": 0.0}, {"backoff_factor": -2.0},
        {"deadline": 0.0}, {"deadline": -10.0},
    ])
    def test_rejects_non_positive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_schedule(self):
        p = RetryPolicy(backoff=0.5, backoff_factor=2.0)
        assert p.delay_before(1) == 0.5
        assert p.delay_before(2) == 1.0
        assert p.delay_before(3) == 2.0

    def test_jittered_backoff_bounded_and_seeded(self):
        from repro.sim.rng import RngRegistry
        p = RetryPolicy(backoff=0.5, backoff_factor=2.0)
        draws = [p.delay_before(i, rng=RngRegistry(9).stream("j"))
                 for i in (1, 2, 3)]
        for i, d in enumerate(draws, start=1):
            assert 0.0 <= d <= p.delay_before(i)
        # same seed, same stream name -> identical jitter
        again = [p.delay_before(i, rng=RngRegistry(9).stream("j"))
                 for i in (1, 2, 3)]
        assert draws == again


class TestRetries:
    def test_no_retry_needed(self):
        env, client, servant, ior = make_rig()
        result = client.sync(client.env.process(invoke_with_retry(
            client, ior, FLAKY.operations["get"], ())))
        assert result == 1
        assert client.metrics.get("orb.retries") == 0

    def test_transient_retried_until_success(self):
        env, client, servant, ior = make_rig()
        servant.failures_left = 2
        result = client.sync(client.env.process(invoke_with_retry(
            client, ior, FLAKY.operations["fail_n"], (0,),
            policy=RetryPolicy(attempts=4, timeout=1.0, backoff=0.1))))
        assert result == 3  # two failures + one success
        assert client.metrics.get("orb.retries") == 2

    def test_exhausted_attempts_raise_last_error(self):
        env, client, servant, ior = make_rig()
        servant.failures_left = 99
        with pytest.raises(TRANSIENT):
            client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["fail_n"], (0,),
                policy=RetryPolicy(attempts=3, timeout=1.0, backoff=0.1))))
        assert servant.calls == 3

    def test_lossy_link_recovered_by_retry(self):
        env, client, servant, ior = make_rig(loss=0.4)
        policy = RetryPolicy(attempts=8, timeout=0.5, backoff=0.05)
        results = []
        for _ in range(10):
            results.append(client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["get"], (), policy=policy))))
        assert len(results) == 10
        assert client.metrics.get("orb.retries") > 0

    def test_dead_server_times_out_with_backoff(self):
        env, client, servant, ior = make_rig()
        env  # warm path first
        client.network.topology.set_host_state("a", alive=False)
        t0 = env.now
        with pytest.raises(TIMEOUT):
            client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["get"], (),
                policy=RetryPolicy(attempts=3, timeout=1.0, backoff=0.5,
                                   jitter=False))))
        # 3 timeouts + backoffs 0.5 + 1.0
        assert env.now - t0 == pytest.approx(3 * 1.0 + 0.5 + 1.0)

    def test_non_retryable_error_propagates_immediately(self):
        env, client, servant, ior = make_rig()
        from repro.orb.exceptions import BAD_OPERATION
        bogus = op("no_such_op", [], tc_long)
        with pytest.raises(BAD_OPERATION):
            client.sync(client.env.process(invoke_with_retry(
                client, ior, bogus, (),
                policy=RetryPolicy(attempts=5, timeout=1.0))))
        # only one attempt was made
        assert client.metrics.get("orb.retries") == 0

    def test_deadline_caps_total_retry_time(self):
        env, client, servant, ior = make_rig()
        client.network.topology.set_host_state("a", alive=False)
        t0 = env.now
        with pytest.raises(TIMEOUT):
            client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["get"], (),
                policy=RetryPolicy(attempts=5, timeout=1.0, backoff=0.5,
                                   deadline=2.5, jitter=False))))
        # attempt 1 (1.0) + backoff (0.5) + attempt 2 capped to the
        # remaining 1.0 = 2.5; attempts 3..5 never run
        assert env.now - t0 == pytest.approx(2.5)

    def test_deadline_skips_backoff_that_would_overrun(self):
        env, client, servant, ior = make_rig()
        client.network.topology.set_host_state("a", alive=False)
        t0 = env.now
        with pytest.raises(TIMEOUT):
            client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["get"], (),
                policy=RetryPolicy(attempts=5, timeout=1.0, backoff=5.0,
                                   deadline=3.0, jitter=False))))
        # one 1.0s attempt; the 5.0s backoff would blow the 3.0s budget
        assert env.now - t0 == pytest.approx(1.0)

    def test_jittered_retries_are_deterministic_per_seed(self):
        def elapsed():
            env, client, servant, ior = make_rig()
            servant.failures_left = 2
            t0 = env.now
            client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["fail_n"], (0,),
                policy=RetryPolicy(attempts=4, timeout=1.0, backoff=0.4))))
            return env.now - t0

        first, second = elapsed(), elapsed()
        assert first == second  # same seed -> same jitter draws
        # jitter is full: total sleep strictly below the fixed schedule
        assert first < 0.4 + 0.8 + 2 * 0.01

    def test_usable_inside_processes(self):
        env, client, servant, ior = make_rig()
        servant.failures_left = 1

        def proc():
            value = yield from invoke_with_retry(
                client, ior, FLAKY.operations["fail_n"], (0,),
                policy=RetryPolicy(attempts=3, timeout=1.0, backoff=0.1))
            return value

        assert env.run(until=env.process(proc())) == 2

"""Retry-budget (amplification cap) tests — chaos PR.

Under a partition every first attempt times out, and naive retry loops
turn N requests/s into ``N × attempts`` requests/s of pure
amplification aimed at the sickest part of the system.  The
:class:`RetryBudget` token bucket caps that: first attempts deposit
``ratio`` tokens, each retry withdraws one, a dry bucket sheds the
retry (``orb.retries.shed``) and surfaces the last failure instead.
"""

import pytest

from repro.orb.core import InterfaceDef, ORB, Servant, op
from repro.orb.exceptions import TIMEOUT, TRANSIENT
from repro.orb.retry import (
    BreakerRegistry,
    RetryBudget,
    RetryPolicy,
    invoke_with_retry,
)
from repro.orb.typecodes import tc_long
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.stats import MetricRegistry
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


def make_rig():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    topo.add_link("a", "b", LinkClass("lan", latency=0.001,
                                     bandwidth=1e6, loss=0.0))
    env = Environment()
    net = Network(env, topo, rngs=RngRegistry(5))
    server = ORB(env, net, "a")
    client = ORB(env, net, "b")
    servant = FlakyServant()
    ior = server.adapter("root").activate(servant)
    return env, client, servant, ior


class TestBudgetBucket:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            RetryBudget(env, None, ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(env, None, refill_rate=-1.0)
        with pytest.raises(ValueError):
            RetryBudget(env, None, max_tokens=0.5)

    def test_attempts_deposit_and_retries_withdraw(self):
        env = Environment()
        budget = RetryBudget(env, None, ratio=0.5, refill_rate=0.0,
                             max_tokens=10.0, initial=0.0)
        assert budget.available() == 0.0
        for _ in range(4):
            budget.on_attempt()
        assert budget.available() == pytest.approx(2.0)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()           # dry: shed
        assert budget.shed == 1 and budget.spent == 2

    def test_refill_over_simulated_time(self):
        env = Environment()
        budget = RetryBudget(env, None, ratio=0.0, refill_rate=2.0,
                             max_tokens=5.0, initial=0.0)
        assert not budget.try_spend()
        env.run(until=env.timeout(1.0))
        assert budget.available() == pytest.approx(2.0)
        assert budget.try_spend()

    def test_tokens_capped_at_max(self):
        env = Environment()
        budget = RetryBudget(env, None, ratio=1.0, refill_rate=10.0,
                             max_tokens=3.0)
        for _ in range(20):
            budget.on_attempt()
        assert budget.available() == 3.0

    def test_shed_is_counted(self):
        env = Environment()
        metrics = MetricRegistry()
        budget = RetryBudget(env, metrics, refill_rate=0.0, initial=0.0)
        assert not budget.try_spend()
        assert metrics.get("orb.retries.shed") == 1


class TestBudgetedRetryLoop:
    def test_dry_budget_sheds_instead_of_retrying(self):
        env, client, servant, ior = make_rig()
        servant.failures_left = 99
        budget = RetryBudget(env, client.metrics, ratio=0.0,
                             refill_rate=0.0, initial=0.0)
        with pytest.raises(TRANSIENT):
            client.sync(client.env.process(invoke_with_retry(
                client, ior, FLAKY.operations["fail_n"], (0,),
                policy=RetryPolicy(attempts=5, timeout=1.0, backoff=0.1),
                budget=budget)))
        # One first attempt, zero retries: shed, not amplified.
        assert servant.calls == 1
        assert client.metrics.get("orb.retries.shed") >= 1
        assert client.metrics.get("orb.retries", 0.0) == 0.0

    def test_funded_budget_allows_recovery(self):
        env, client, servant, ior = make_rig()
        servant.failures_left = 2
        budget = RetryBudget(env, client.metrics, initial=5.0,
                             refill_rate=0.0)
        result = client.sync(client.env.process(invoke_with_retry(
            client, ior, FLAKY.operations["fail_n"], (0,),
            policy=RetryPolicy(attempts=4, timeout=1.0, backoff=0.1),
            budget=budget)))
        assert result == 3
        assert budget.spent == 2 and budget.shed == 0

    def test_storm_amplification_is_bounded(self):
        """100 first attempts against a dead host: total wire attempts
        stay near 100 + budget, nowhere near 100 × attempts."""
        env, client, servant, ior = make_rig()
        client.network.topology.set_host_state("a", alive=False)
        budget = RetryBudget(env, client.metrics, ratio=0.1,
                             refill_rate=0.0, max_tokens=50.0,
                             initial=0.0)
        policy = RetryPolicy(attempts=4, timeout=0.2, backoff=0.05,
                             jitter=False)
        for _ in range(100):
            with pytest.raises(TIMEOUT):
                client.sync(client.env.process(invoke_with_retry(
                    client, ior, FLAKY.operations["get"],
                    (), policy=policy, budget=budget)))
        retries = client.metrics.get("orb.retries")
        assert retries <= 15                 # ~ratio × attempts, not 300
        assert client.metrics.get("orb.retries.shed") >= 100

    def test_breaker_registry_carries_shared_budget(self):
        env, client, servant, ior = make_rig()
        budget = RetryBudget(env, client.metrics)
        registry = BreakerRegistry(client, retry_budget=budget,
                                   failure_threshold=3)
        assert registry.retry_budget is budget
        breaker = registry.breaker_for("a")
        assert registry.breaker_for("a") is breaker

"""The shard ring answers what a brute-force vnode walk answers, and
staged changes stay invisible until ``rebalance``.

Every party of the federated registry -- gossip senders, receivers,
reporters and resolvers -- computes ownership from the same
``ShardRing``, and a gossip frame carries only the records its receiver
owns (``ShardAgent._send_shares``), so sender and receiver must agree on
``owners(key, n)`` exactly.  A state machine runs ``stage_add``,
``stage_remove``, ``rebalance`` and ``owners`` against a model that keeps
the committed host set and the staged intents and walks the vnode points
by brute force: a key is owned by the hosts of the points clockwise of
its own point, a point equal to the key's counting as the last one
reached (a full turn away), the first ``n`` distinct hosts in that
order, or every host when there are fewer than ``n``.  Keys are drawn
both as plain names and as vnode names, whose points sit exactly on a
ring point.  A staging error must leave the ring as it was.

Three named mutants must each fail the law: ``bisect_left`` in the walk
(a key on a point is owned from that point), owners without the
distinctness check, and a walk that does not cap ``n`` at the host
count.  Dropping only the ``min`` is an equivalent mutant, since the walk
is bounded by the point count; the mutant is the walk that runs until it
has ``n`` owners, which never returns when ``n`` exceeds the hosts, and
here fails on its second turn instead of hanging.
"""

from __future__ import annotations

import bisect

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.registry.federation import ring as ring_mod
from repro.registry.federation.ring import ShardRing, ring_point
from repro.util.errors import ConfigurationError

HOSTS = ["a", "b", "c", "d", "e"]
VNODES = 3
KEYS = st.one_of(
    st.sampled_from([f"IDL:demo/K{i}:1.0" for i in range(6)]),
    st.builds(lambda h, v: f"{h}#{v}", st.sampled_from(HOSTS),
              st.integers(0, VNODES - 1)))

SETTINGS = settings(max_examples=80, stateful_step_count=25,
                    deadline=None, derandomize=True,
                    report_multiple_bugs=False)
#: a mutant only has to fail; its shrunk counterexample is not read.
MUTANT_SETTINGS = settings(SETTINGS, phases=[Phase.generate])


def brute_owners(hosts, key: str, n: int) -> list[str]:
    point = ring_point(key)
    walk = sorted(
        (((p - point - 1) % ring_mod._SPACE, host)
         for host in hosts for p in (ring_point(f"{host}#{v}")
                                     for v in range(VNODES))))
    out: list[str] = []
    for _distance, host in walk:
        if host not in out:
            out.append(host)
    return out[:n]


class ShardRingMachine(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.ring = ShardRing(vnodes=VNODES)
        self.hosts: set[str] = set()
        self.adds: set[str] = set()
        self.removes: set[str] = set()

    @rule(host=st.sampled_from(HOSTS))
    def stage_add(self, host):
        if host in self.hosts and host not in self.removes:
            with pytest.raises(ConfigurationError):
                self.ring.stage_add(host)
            return
        self.ring.stage_add(host)
        self.removes.discard(host)
        if host not in self.hosts:
            self.adds.add(host)

    @rule(host=st.sampled_from(HOSTS))
    def stage_remove(self, host):
        if host in self.adds:
            self.adds.discard(host)
        elif host not in self.hosts:
            with pytest.raises(ConfigurationError):
                self.ring.stage_remove(host)
            return
        else:
            self.removes.add(host)
        self.ring.stage_remove(host)

    @rule()
    def rebalance(self):
        report = self.ring.rebalance()
        assert report.added == tuple(sorted(self.adds))
        assert report.removed == tuple(sorted(self.removes))
        self.hosts = (self.hosts | self.adds) - self.removes
        self.adds, self.removes = set(), set()
        assert report.hosts == tuple(sorted(self.hosts))

    @precondition(lambda self: not self.hosts)
    @rule(key=KEYS)
    def owners_of_an_empty_ring(self, key):
        with pytest.raises(ConfigurationError):
            self.ring.owners(key, 1)

    @precondition(lambda self: self.hosts)
    @rule(key=KEYS, n=st.integers(0, len(HOSTS) + 2))
    def owners(self, key, n):
        assert self.ring.owners(key, n) == brute_owners(self.hosts, key, n)

    @invariant()
    def staged_is_invisible(self):
        assert self.ring.hosts() == sorted(self.hosts)
        assert len(self.ring) == len(self.hosts)
        assert self.ring.pending == bool(self.adds or self.removes)


def test_shard_ring_law():
    run_state_machine_as_test(ShardRingMachine, settings=SETTINGS)


# -- mutants -----------------------------------------------------------------

def _walk(self, key, n, *, search=bisect.bisect_right, distinct=True,
          cap=True):
    """``ShardRing.owners`` with its three guards switchable."""
    if not self._points:
        raise ConfigurationError("ring has no hosts")
    if cap:
        n = min(n, len(self._hosts))
    idx = search(self._keys, ring_point(key))
    out: list[str] = []
    step = 0
    while len(out) < n:
        if step == 2 * len(self._points):
            raise AssertionError("owners() is still walking the ring")
        _, host = self._points[(idx + step) % len(self._points)]
        if host not in out or not distinct:
            out.append(host)
        step += 1
    return out


MUTANTS = {
    "bisect_left": lambda self, key, n=1: _walk(
        self, key, n, search=bisect.bisect_left),
    "duplicate_owners": lambda self, key, n=1: _walk(
        self, key, n, distinct=False),
    "n_not_capped": lambda self, key, n=1: _walk(self, key, n, cap=False),
}


def test_the_mutant_walk_with_every_guard_passes(monkeypatch):
    monkeypatch.setattr(ShardRing, "owners",
                        lambda self, key, n=1: _walk(self, key, n))
    run_state_machine_as_test(ShardRingMachine,
                              settings=settings(SETTINGS, max_examples=25))


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    monkeypatch.setattr(ShardRing, "owners", MUTANTS[mutant])
    with pytest.raises(AssertionError):
        run_state_machine_as_test(ShardRingMachine,
                                  settings=MUTANT_SETTINGS)

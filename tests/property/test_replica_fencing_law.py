"""Replica promotion fencing, under a failure detector that can be wrong.

A coordinated :class:`~repro.container.replication.ReplicaGroup` has
one primary, fenced by an epoch that every promotion bumps.  Promotion
and the backups a sync pushes to follow the caller's ``alive(host)``
predicate — an observed view, which may call an up host down (a
partition, a slow report) or a dead host up (a crash not yet noticed).

The state machine drives one group of three members on ``h0``–``h2``,
starting at distinct stamps with the highest one primary, through
``ReplicaGroup.select_primary`` and ``ReplicaManager._sync``.
Each member's container answers at once: ok when its host is up and
not partitioned, ``TIMEOUT`` otherwise.  ``alive(host)`` is what the
supervisor asks: the registry's view holds the host and the node does
not suspect it.  The node's suspects follow the ORB's rule: a call that
times out suspects its host, and any answer from the host clears it.
The rules:

- ``crash`` / ``restart`` take a host down and up, ``partition`` /
  ``heal`` cut it off and back; each draws whether the registry's view
  notices, so the view drifts from the truth either way;
- ``sync`` runs ``_sync`` with ``alive``; ``promote`` runs
  ``select_primary`` alone;
- ``look`` calls every host the view holds, suspect or not, as the
  supervisor's checkpoint pass does: afterwards no reachable host in
  the view is suspected (a wrong guess lasts until the host answers).

An in-test reference model replays every rule, and the group must
match it: epoch, primary and each member's epoch stamp.  The law:

- at most one primary per epoch;
- the group's epoch never falls, no member's stamp falls or runs
  ahead of it;
- a promotion picks a candidate with the highest stamp, so a restarted
  ex-primary with a stale epoch never reclaims the role.

Three named mutants must each fail it: promoting the first live member
instead of the highest stamp, promoting without an epoch bump, and a
detector whose suspicion is never cleared.
"""

from __future__ import annotations

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

from repro.container.replication import (
    ReplicaGroup,
    ReplicaManager,
    ReplicaMember,
    ReplicationError,
)
from repro.orb.exceptions import TIMEOUT, SystemException
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry

HOSTS = ("h0", "h1", "h2")

SETTINGS = settings(max_examples=300, stateful_step_count=30,
                    deadline=None, derandomize=True,
                    report_multiple_bugs=False)
#: a mutant only has to fail; its shrunk counterexample is not read.
MUTANT_SETTINGS = settings(SETTINGS, phases=[Phase.generate])

#: whether the detector notices a fault: mostly, but not always.
noticed = st.sampled_from([True, True, True, False])


class World:
    """Truth: which hosts are up, which are cut off, what each holds."""

    def __init__(self) -> None:
        self.up = set(HOSTS)
        self.cut: set[str] = set()
        self.state = {f"i-{h}": b"" for h in HOSTS}

    def reachable(self, host: str) -> bool:
        return host in self.up and host not in self.cut


class Container:
    """A container agent stub whose calls settle in the same instant,
    feeding the node's suspects the way the ORB does."""

    def __init__(self, env, world: World, host: str, suspects) -> None:
        self.env, self.world, self.host = env, world, host
        self.suspects = suspects

    def heard(self) -> None:
        self.suspects.pop(self.host, None)

    def _answer(self, value=None):
        event = self.env.event()
        if self.world.reachable(self.host):
            self.heard()
            return event.succeed(value)
        self.suspects[self.host] = self.suspects.get(self.host, 0) + 1
        return event.fail(TIMEOUT(f"{self.host} unreachable")).defused()

    def get_state(self, instance_id, _timeout=None):
        return self._answer(self.world.state[instance_id])

    def set_state(self, instance_id, state, _timeout=None):
        if self.world.reachable(self.host):
            self.world.state[instance_id] = state
        return self._answer()


class Node:
    """What ``ReplicaManager`` uses of a node."""

    def __init__(self, world: World) -> None:
        self.env = Environment()
        self.metrics = MetricRegistry()
        self.world = world
        #: host -> calls to it that timed out since it last answered
        self.suspects: dict[str, int] = {}

    def service_stub(self, host, service):
        assert service == "container"
        return Container(self.env, self.world, host, self.suspects)


class Model:
    """The reference: the fencing rules, restated."""

    def __init__(self, stamp: dict, primary: str) -> None:
        self.epoch = stamp[primary]
        self.primary = primary
        self.stamp = dict(stamp)

    def select(self, view) -> str:
        candidates = [f"i-{h}" for h in HOSTS if h in view]
        if not candidates:
            raise ReplicationError("no live replicas")
        if self.primary in candidates:
            return self.primary
        best = max(candidates, key=self.stamp.__getitem__)
        self.epoch += 1
        self.stamp[best] = self.epoch
        self.primary = best
        return best

    def sync(self, view, world: World) -> None:
        primary = self.select(view)
        if not world.reachable(primary[2:]):
            raise TIMEOUT("primary unreachable")
        for host in HOSTS:
            member = f"i-{host}"
            if member != primary and host in view \
                    and world.reachable(host):
                self.stamp[member] = self.epoch


class FencingMachine(RuleBasedStateMachine):
    @initialize(stamps=st.permutations(range(len(HOSTS))))
    def build(self, stamps):
        # Members start at distinct stamps, the primary at the group's
        # epoch, so the first promotion already has a highest to find.
        stamp = {f"i-{h}": e for h, e in zip(HOSTS, stamps)}
        primary = max(stamp, key=stamp.__getitem__)
        self.world = World()
        self.view = set(HOSTS)
        self.node = Node(self.world)
        self.manager = ReplicaManager(self.node)
        self.group = ReplicaGroup(
            component="Counter", facet_repo_id="IDL:test/Counter:1.0",
            mode="coordinated",
            members=[ReplicaMember(host=h, instance_id=f"i-{h}",
                                   facet_ior=None, epoch=stamp[f"i-{h}"])
                     for h in HOSTS],
            epoch=stamp[primary], primary_id=primary)
        self.model = Model(stamp, primary)
        self.primaries = {self.group.epoch: {primary}}
        self.last_epoch = self.group.epoch
        self.last_stamps = dict(stamp)

    def _see(self, host: str, noticed: bool, up: bool) -> None:
        if noticed:
            (self.view.add if up else self.view.discard)(host)

    def alive(self, host: str) -> bool:
        return host in self.view and host not in self.node.suspects

    # -- faults: the truth moves, the view may or may not follow ----------
    @precondition(lambda self: self.world.up)
    @rule(data=st.data(), noticed=noticed)
    def crash(self, data, noticed):
        host = data.draw(st.sampled_from(sorted(self.world.up)))
        self.world.up.discard(host)
        self._see(host, noticed, up=False)

    @precondition(lambda self: len(self.world.up) < len(HOSTS))
    @rule(data=st.data(), noticed=noticed)
    def restart(self, data, noticed):
        host = data.draw(st.sampled_from(
            sorted(set(HOSTS) - self.world.up)))
        self.world.up.add(host)
        self._see(host, noticed, up=self.world.reachable(host))

    @precondition(lambda self: len(self.world.cut) < len(HOSTS))
    @rule(data=st.data(), noticed=noticed)
    def partition(self, data, noticed):
        host = data.draw(st.sampled_from(
            sorted(set(HOSTS) - self.world.cut)))
        self.world.cut.add(host)
        self._see(host, noticed, up=False)

    @precondition(lambda self: self.world.cut)
    @rule(data=st.data(), noticed=noticed)
    def heal(self, data, noticed):
        host = data.draw(st.sampled_from(sorted(self.world.cut)))
        self.world.cut.discard(host)
        self._see(host, noticed, up=self.world.reachable(host))

    # -- the operations under test ------------------------------------------
    def _run(self, operate, model_operate) -> None:
        before = {m.instance_id: m.epoch for m in self.group.members}
        primary_before = self.group.primary_id
        view = {h for h in HOSTS if self.alive(h)}
        try:
            model_operate(view)
        except (ReplicationError, SystemException) as exc:
            expected = type(exc)
        else:
            expected = None
        try:
            operate()
        except (ReplicationError, SystemException) as exc:
            assert expected is not None and isinstance(exc, expected), exc
        else:
            assert expected is None, f"expected {expected.__name__}"
        if self.group.primary_id != primary_before:
            candidates = [m for m in self.group.members
                          if m.host in view]
            assert before[self.group.primary_id] == max(
                before[m.instance_id] for m in candidates), (
                f"promoted {self.group.primary_id} at stamp "
                f"{before[self.group.primary_id]} over {before}")

    @rule()
    def sync(self):
        def operate():
            self.node.env.run(until=self.node.env.process(
                self.manager._sync(self.group, self.alive)))
        self._run(operate, lambda view: self.model.sync(view, self.world))

    @rule()
    def promote(self):
        self._run(lambda: self.group.select_primary(self.alive),
                  self.model.select)

    @rule()
    def look(self):
        for member in self.group.members:
            if member.host in self.view:
                self.node.service_stub(member.host, "container") \
                    .get_state(member.instance_id)
        wrong = [h for h in sorted(self.view)
                 if self.world.reachable(h) and h in self.node.suspects]
        assert not wrong, f"answered, still suspected: {wrong}"

    # -- the law --------------------------------------------------------------
    @invariant()
    def one_primary_per_epoch(self):
        if not hasattr(self, "group"):
            return
        seen = self.primaries.setdefault(self.group.epoch, set())
        seen.add(self.group.primary_id)
        assert len(seen) == 1, (self.group.epoch, seen)

    @invariant()
    def epochs_monotone(self):
        if not hasattr(self, "group"):
            return
        assert self.group.epoch >= self.last_epoch
        self.last_epoch = self.group.epoch
        for member in self.group.members:
            assert self.last_stamps[member.instance_id] <= member.epoch \
                <= self.group.epoch, member
            self.last_stamps[member.instance_id] = member.epoch

    @invariant()
    def matches_the_model(self):
        if not hasattr(self, "group"):
            return
        assert self.group.epoch == self.model.epoch
        assert self.group.primary_id == self.model.primary
        assert {m.instance_id: m.epoch for m in self.group.members} \
            == self.model.stamp


def test_replica_fencing_law():
    run_state_machine_as_test(FencingMachine, settings=SETTINGS)


# -- mutants -----------------------------------------------------------------

def _first_alive(self, alive):
    candidates = self.alive_members(alive)
    if not candidates:
        raise ReplicationError(f"no live replicas of {self.component}")
    for member in candidates:
        if member.instance_id == self.primary_id:
            return member
    self.promote(candidates[0])
    return candidates[0]


def _promote_without_bump(self, member):
    member.epoch = self.epoch
    self.primary_id = member.instance_id


MUTANTS = {
    "first_alive_member": (ReplicaGroup, "select_primary", _first_alive),
    "no_epoch_bump": (ReplicaGroup, "promote", _promote_without_bump),
    "suspicion_never_cleared": (Container, "heard", lambda self: None),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    owner, name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(FencingMachine, settings=MUTANT_SETTINGS)

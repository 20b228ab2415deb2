"""Publishing by change: what the owners offer is what the members provide.

A member sends each owner of its keys one frame per ``update_interval``:
its whole share for that owner when the share changed or on every
``FULL_SYNC_EVERY``-th tick, else the bodiless ``alive()``.  An owner
keeps a live record while its node heard the record's host within
``record_timeout`` and until a publish from that host leaves it out; a
withdrawn key goes out as a tombstone.  The law, over random schedules
of provider changes and withdrawals, lost frames, provider and owner
crash/restart and ``remove_owner`` / re-add on a six-host LAN with three
owners and replication 2:

- **one tick after a change**, while no frame has been lost and no
  owner has crashed, every live ring owner of the repo-id offers
  (``ShardAgent.candidates``) exactly the hosts that provide it, each as
  it provides it now (component, version, running IOR, mobility,
  headroom);
- **at quiescence** (crashed owners restarted, then 30 s of quiet), the
  same holds whatever was lost.

A change is a provider being installed, started, stopped or uninstalled
(the last with no instance left is a withdrawal), or an owner leaving
or rejoining the ring.  A lost frame is the next GIOP frame on one
(sender, owner) pair, dropped at the owner's port, so the owner neither
merges it nor hears its sender; each ``drop`` arms one more, so two in
a row lose two frames in a row.  A ``bounce`` crashes a provider and
restarts it at once, before its next tick: its reporter forgets what it
stamped and sent, a tombstone it had not yet sent included.

Time is kept on two grids off the reporters' ticks (phases in thirds of
a second, a 2 s interval): operations at 0.05 s past a half second,
checks at 0.25 s past, and an operation is followed by its check 2.2 s
later, one tick plus LAN transit.

``c0h1`` provides the repo-id and owns its key, so its own records
reach it over a collocated call that the listener never sees.  Five
named mutants must each fail the law.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation import orchestrator
from repro.registry.federation.orchestrator import FederationReporter
from repro.registry.federation.records import RecordStore
from repro.registry.federation.shard import ShardAgent
from repro.registry.view import NodeView
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.xmlmeta.descriptors import QoSSpec

from tests.oracles.federation import add_owner

REPO = COUNTER_IFACE.repo_id
OWNERS = ["c0h1", "c0h2", "c0h4"]
#: c0h1 is also an owner of REPO's key
PROVIDERS = ["c0h1", "c0h3"]
CRASHABLE = ["c0h2", "c0h4", "c0h5"]
JOINABLE = ["c0h2", "c0h3", "c0h4", "c0h5"]
MAX_OWNERS = 4
CONFIG = dict(owners=len(OWNERS), replication=2, update_interval=2.0,
              gossip_interval=2.0, seed_peer_count=2)
CHECK_AFTER = 2.2
QUIET = 30.0
PACKAGE = counter_package()

ops = st.one_of(
    st.tuples(st.sampled_from(["install", "start", "stop", "uninstall",
                               "bounce"]),
              st.sampled_from(PROVIDERS)),
    st.tuples(st.just("drop"),
              st.tuples(st.sampled_from(PROVIDERS + OWNERS),
                        st.sampled_from(OWNERS + ["c0h5"]))),
    st.tuples(st.sampled_from(["crash", "restart"]),
              st.sampled_from(CRASHABLE)),
    st.tuples(st.sampled_from(["remove_owner", "add_owner"]),
              st.sampled_from(JOINABLE)),
)
#: extra half seconds after an operation's check before the next one;
#: None: the next operation follows at the same instant, before the check
schedules = st.lists(
    st.tuples(ops, st.sampled_from([None, 0, 1, 3, 7, 15])), max_size=12)


class _World:
    """The rig, the federation and the frames armed to be lost."""

    def __init__(self) -> None:
        self.rig = SimRig(clustered(1, 6), seed=51)
        for host in PROVIDERS:
            self.rig.node(host).install_package(PACKAGE)
        self.fed = FederatedRegistry(self.rig.nodes,
                                     FederationConfig(**CONFIG))
        self.fed.deploy(owner_hosts=OWNERS)
        #: (sender, receiver) pair -> how many of its next frames are lost
        self.drops: Counter[tuple[str, str]] = Counter()
        #: no frame lost and no owner crashed so far
        self.clean = True
        for host in self.rig.topology.host_ids():
            self._port(host)

    def _port(self, host: str) -> None:
        handlers = self.rig.network.interface(host)._handlers
        deliver = handlers["giop"]

        def on_frame(msg) -> None:
            if self.drops[msg.src, host]:
                self.drops[msg.src, host] -= 1
                return
            deliver(msg)
        handlers["giop"] = on_frame

    def alive(self, host: str) -> bool:
        return self.rig.topology.host(host).alive

    # -- the law ------------------------------------------------------------
    def providers(self) -> set[tuple]:
        """What the members provide now: (host, component, version,
        running IOR, mobility, free CPU, free memory) per provider."""
        out = set()
        for host in PROVIDERS:
            view = NodeView.collect(self.rig.node(host))
            snap = view.snapshot
            out.update((host, *row[1:], snap.cpu_available,
                        snap.memory_available)
                       for row in FederationReporter._view_candidates(view)
                       if row[0] == REPO)
        return out

    def check(self, when: str) -> None:
        want = self.providers()
        for owner in self.fed.ring.owners(REPO, self.fed.config.replication):
            if not self.alive(owner):
                continue
            got = {(c.host, c.component, c.version, c.running_ior,
                    c.mobility, c.free_cpu, c.free_memory)
                   for c in self.fed.agents[owner].candidates(
                       REPO, QoSSpec())}
            assert got == want, (
                f"{when}, t={self.rig.env.now:.2f}: owner {owner} offers "
                f"{sorted(got)}, the members provide {sorted(want)}")

    # -- operations ---------------------------------------------------------
    def apply(self, op: str, arg) -> bool:
        """Apply one operation; True when it was a change."""
        if op in ("install", "start", "stop", "uninstall"):
            return self._provider(op, self.rig.node(arg))
        if op == "drop":
            self.drops[arg] += 1
            self.clean = False
            return False
        if op == "bounce":
            self.rig.topology.set_host_state(arg, alive=False)
            self.rig.topology.set_host_state(arg, alive=True)
            self.clean = False
            return False
        owners = sorted(self.fed.agents)
        if op == "crash" and arg in owners and self.alive(arg):
            self.rig.topology.set_host_state(arg, alive=False)
            self.clean = False
        elif op == "restart" and not self.alive(arg):
            self.rig.topology.set_host_state(arg, alive=True)
            self.clean = False
        elif op == "remove_owner" and arg in owners and len(owners) > 2:
            self.fed.remove_owner(arg)
            return True
        elif (op == "add_owner" and arg not in owners and self.alive(arg)
              and len(owners) < MAX_OWNERS):
            add_owner(self.fed, arg)
            return True
        return False

    @staticmethod
    def _provider(op: str, node) -> bool:
        package = PACKAGE
        installed = node.repository.is_installed(package.name)
        instances = node.container.instance_infos()
        if op == "install" and not installed:
            node.install_package(package)
        elif op == "uninstall" and installed:
            node.repository.remove(package.name, package.version)
        elif op == "start" and installed:
            node.container.create_instance(package.name)
        elif op == "stop" and instances:
            node.container.destroy_instance(instances[0].instance_id)
        else:
            return False
        return True

    def heal(self) -> None:
        self.drops.clear()
        for host in CRASHABLE:
            if not self.alive(host):
                self.rig.topology.set_host_state(host, alive=True)


def run_schedule(schedule) -> None:
    world = _World()
    world.rig.run(until=world.fed.settle_time())
    now = world.rig.env.now
    now += 0.55 - now % 0.5          # an operation instant
    changed = False
    for (op, arg), extra in schedule:
        world.rig.run(until=now)
        changed |= world.apply(op, arg)
        if extra is None:
            continue
        world.rig.run(until=now + CHECK_AFTER)
        if changed and world.clean:
            world.check(f"one tick after {op} {arg}")
        changed = False
        now += CHECK_AFTER + 0.3 + 0.5 * extra
    world.rig.run(until=now)
    world.heal()
    world.rig.run(until=now + QUIET)
    world.check("at quiescence")


#: the start of an instance reaches neither owner of the key; only the
#: member's full tick repairs it
LOST_CHANGE = [(("drop", ("c0h3", "c0h1")), None),
               (("drop", ("c0h3", "c0h4")), None), (("start", "c0h3"), 0)]
#: an owner leaves and rejoins with the member's share unchanged
REJOIN = [(("remove_owner", "c0h4"), 0), (("add_owner", "c0h4"), 0)]
#: a withdrawal, one tick later
WITHDRAW = [(("start", "c0h3"), 0), (("stop", "c0h3"), 0),
            (("uninstall", "c0h3"), 0)]
#: a withdrawal whose tombstone is never made: the provider restarts
#: before its next tick, and that tick sends every owner its share
WITHDRAW_AND_BOUNCE = [(("uninstall", "c0h3"), None),
                       (("bounce", "c0h3"), 0)]
#: two frames in a row lost on one pair, the first a start's
TWO_LOST = [(("drop", ("c0h3", "c0h1")), None),
            (("drop", ("c0h3", "c0h1")), None), (("start", "c0h3"), 0)]


@settings(max_examples=30, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(schedule=schedules)
@example(schedule=LOST_CHANGE)
@example(schedule=REJOIN)
@example(schedule=WITHDRAW)
@example(schedule=WITHDRAW_AND_BOUNCE)
@example(schedule=TWO_LOST)
def test_owners_offer_what_members_provide(schedule):
    run_schedule(schedule)


def test_the_law_is_not_vacuous():
    """Left alone, both providers are offered by both owners of the
    key, and most ticks send keep-alives and hold records back."""
    world = _World()
    world.rig.run(until=world.fed.settle_time() + 20.0)
    assert {p[0] for p in world.providers()} == set(PROVIDERS)
    assert "c0h1" in world.fed.ring.owners(REPO, 2)
    world.check("quiet")
    metrics = world.rig.metrics
    assert metrics.get("federation.alive.msgs") > metrics.get(
        "federation.publish.msgs")
    assert metrics.get("federation.publish.unchanged") > 0


# -- mutants -----------------------------------------------------------------
# Each re-creates one plausible wrong version of publishing by change, and
# the law above must catch it.

def mutant_expiry_by_the_reporters_epoch(monkeypatch):
    """Owners expire a live record by its epoch, as before: an unchanged
    record is never re-stamped, so it ages out while its host lives."""
    monkeypatch.setattr(ShardAgent, "_live",
                        lambda self, record, cutoff: record.epoch >= cutoff)


def mutant_no_full_tick(monkeypatch):
    """A member sends only what changed: a change every owner missed is
    never sent again."""
    monkeypatch.setattr(orchestrator, "FULL_SYNC_EVERY", 10 ** 9)


def mutant_memory_kept_for_an_owner_that_left(monkeypatch):
    """The reporter keeps what it sent an owner after that owner left
    the ring: rejoining with an empty store, it gets keep-alives."""
    real = FederationReporter._tick

    def tick(self):
        kept = dict(self._sent)
        real(self)
        self._sent = {**kept, **self._sent}
    monkeypatch.setattr(FederationReporter, "_tick", tick)


def mutant_own_host_not_heard(monkeypatch):
    """The owner's own host counts as heard only through ``ORB.heard``,
    which a collocated publish never writes."""
    monkeypatch.setattr(
        ShardAgent, "_live",
        lambda self, record, cutoff: self.node.orb.heard.get(
            record.host, float("-inf")) >= cutoff)


def mutant_publish_not_whole(monkeypatch):
    """Owners merge a publish record by record and keep the live
    records it leaves out: one whose tombstone was never sent stays
    offered while its host is heard."""
    monkeypatch.setattr(RecordStore, "retain",
                        lambda self, host, repo_ids: None)


@pytest.mark.parametrize("mutant", [
    mutant_expiry_by_the_reporters_epoch,
    mutant_no_full_tick,
    mutant_memory_kept_for_an_owner_that_left,
    mutant_own_host_not_heard,
    mutant_publish_not_whole,
], ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        test_owners_offer_what_members_provide()

"""Liveness is sharded soft state: ``live_hosts()`` against a model of
who was told what.

A host's liveness is never relayed between owners; it is whatever the
ring owners of ``host:<id>`` (and of its records' keys) heard from the
host itself.  The law, over random schedules of host and owner
crash/restart, ``remove_owner``/``add_owner`` and time advances on a
2x4 rig with 3 owners and replication 2:

    H is in ``live_hosts()`` iff some live owner was sent a publish by
    H no longer than ``member_timeout`` ago (and has not lost its RAM,
    or retired H as an owner, since).

The model never looks at a member table.  It watches each reporter
*fire* (not what it sends), works out from the shared ring whom that
publish is owed to, and delivers it to the owners that are up.  The
gossiped owner plane is not under test and is read from the system as
it stands: a live owner counts itself and every owner it holds a fresh
alive beacon for.

Time is kept on three interleaved grids so that nothing is in flight
when the model is compared: reporters fire on multiples of 0.5 s (or,
after a restart, at an operation instant), operations happen at
0.25 s past, and probes at 0.125 s before an operation — at least
0.125 s after any send, against ~31 ms across the WAN.  Cluster heads
are the WAN gateways and never crash, so an owner is reachable iff it
is up.

Three named mutants of the direct-report path must each fail the law.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.federation.records import MembershipTable
from repro.registry.federation.shard import ShardAgent
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package

from tests.oracles.federation import add_owner

HOSTS = [f"c{c}h{j}" for c in range(2) for j in range(4)]
CRASHABLE = [h for h in HOSTS if not h.endswith("h0")]
OWNERS = ["c0h1", "c0h3", "c1h2"]
PROVIDER = "c1h1"
MAX_OWNERS = 4          # peers <= fanout: every round reaches every peer
CONFIG = dict(owners=len(OWNERS), replication=2, update_interval=4.0,
              gossip_interval=1.0, seed_peer_count=1)

ops = st.one_of(
    st.tuples(st.sampled_from(["crash", "restart", "add_owner"]),
              st.sampled_from(HOSTS)),
    st.tuples(st.sampled_from(["crash_owner", "restart_owner",
                               "remove_owner"]),
              st.integers(0, MAX_OWNERS - 1)),
    st.just(("wait", None)),
)
schedules = st.lists(
    st.tuples(ops, st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, 13.0])),
    max_size=14)


class _World:
    """The rig, the federation and the model of who heard whom."""

    def __init__(self) -> None:
        self.rig = SimRig(clustered(2, 4), seed=20)
        self.rig.node(PROVIDER).install_package(counter_package())
        self.fed = FederatedRegistry(self.rig.nodes,
                                     FederationConfig(**CONFIG))
        self.fed.deploy(owner_hosts=OWNERS)
        #: owner -> {host: when the latest publish it holds was sent}
        self.heard: dict[str, dict[str, float]] = {o: {} for o in OWNERS}
        #: (host, sent, owed owners) of publishes not yet delivered
        self.in_flight: list[tuple[str, float, set]] = []
        for reporter in self.fed.reporters.values():
            self._watch(reporter)

    def _watch(self, reporter) -> None:
        host = reporter.node.host_id
        keys = [f"host:{host}"]
        if host == PROVIDER:
            keys.append(COUNTER_IFACE.repo_id)
        fire = reporter._tick

        def tick() -> None:
            owed = {owner for key in keys for owner in self.fed.ring.owners(
                key, self.fed.config.replication)}
            self.in_flight.append((host, self.rig.env.now, owed))
            fire()
        reporter._tick = tick

    def alive(self, host: str) -> bool:
        return self.rig.topology.host(host).alive

    # -- the model ----------------------------------------------------------
    def land(self) -> None:
        """Deliver what was sent: a publish reaches the owners that are
        up (and still owners) when it arrives."""
        for host, sent, owed in self.in_flight:
            for owner in owed:
                if owner in self.heard and self.alive(owner):
                    table = self.heard[owner]
                    table[host] = max(sent, table.get(host, sent))
        self.in_flight.clear()

    def expected(self) -> set[str]:
        cutoff = self.rig.env.now - self.fed.config.member_timeout
        out: set[str] = set()
        for owner, table in self.heard.items():
            if not self.alive(owner):
                continue
            out.add(owner)
            beacons = self.fed.agents[owner].membership.owner_beacons()
            out.update(b.host for b in beacons
                       if b.alive and b.epoch >= cutoff)
            out.update(h for h, sent in table.items() if sent >= cutoff)
        return out

    def check(self) -> None:
        self.land()
        live, expected = self.fed.live_hosts(), self.expected()
        assert live == expected, (
            f"t={self.rig.env.now}, owners {sorted(self.heard)}: "
            f"wrongly live {sorted(live - expected)}, "
            f"wrongly absent {sorted(expected - live)}")

    # -- operations ---------------------------------------------------------
    def apply(self, op: str, arg) -> None:
        owners = sorted(self.heard)
        if op.endswith("_owner") and op != "add_owner":
            if arg >= len(owners):
                return
            arg = owners[arg]
            op = op.removesuffix("_owner")
        if op == "crash" and arg in CRASHABLE:
            self.rig.topology.set_host_state(arg, alive=False)
            if arg in self.heard:
                self.heard[arg].clear()         # an owner's RAM is gone
        elif op == "restart" and self._may_restart(arg):
            self.rig.topology.set_host_state(arg, alive=True)
        elif op == "remove" and len(owners) > 2:
            self.fed.remove_owner(arg)
            del self.heard[arg]
            for table in self.heard.values():
                # declared dead everywhere: a drained owner re-enters
                # as a plain member on its next publish
                table.pop(arg, None)
        elif (op == "add_owner" and arg not in self.heard
                and self.alive(arg) and len(owners) < MAX_OWNERS):
            add_owner(self.fed, arg)
            self.heard[arg] = {}

    def _may_restart(self, host: str) -> bool:
        """An owner boots believing its static seed peers alive; one
        that was retired meanwhile would be a phantom owner whose later
        dead-marking is owner-plane behaviour this law does not model."""
        agent = self.fed.agents.get(host)
        return agent is None or all(p in self.heard
                                    for p in agent.seed_peers)


def run_schedule(schedule) -> None:
    world = _World()
    now = 0.25
    tail = [(("wait", None), dt) for dt in (0.5, 4.0, 13.0)]
    for (op, arg), dt in list(schedule) + tail:
        now += dt
        world.rig.run(until=now - 0.125)
        world.check()
        world.rig.run(until=now)
        world.apply(op, arg)


@settings(max_examples=40, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(schedule=schedules)
def test_live_hosts_is_the_owners_direct_reports(schedule):
    run_schedule(schedule)


def test_the_model_sees_everyone_on_a_quiet_rig():
    """Non-vacuity: left alone, model and system both settle on the
    whole population."""
    world = _World()
    world.rig.run(until=world.fed.settle_time() + 0.125)
    world.check()
    assert world.fed.live_hosts() == set(HOSTS)


# -- mutants -----------------------------------------------------------------
# Each re-creates one plausible wrong version of the direct-report path,
# and the law above must catch it.

def mutant_presence_goes_to_the_primary_owner_only(monkeypatch):
    """The reporter sends its presence beacon to the first owner of its
    host key instead of the whole replication set: one owner loss then
    hides a live host."""
    class PrimaryOnlyForHostKeys:
        def __init__(self, ring):
            self._ring = ring

        def owners(self, key, n=1):
            return self._ring.owners(key, 1 if key.startswith("host:")
                                     else n)

    real_deploy = FederatedRegistry.deploy

    def deploy(self, owner_hosts=None):
        real_deploy(self, owner_hosts)
        for reporter in self.reporters.values():
            reporter.ring = PrimaryOnlyForHostKeys(self.ring)
    monkeypatch.setattr(FederatedRegistry, "deploy", deploy)


def mutant_recordless_publish_is_not_a_beacon(monkeypatch):
    """``accept_publish`` only notes the origin when the batch carries
    records: a host that provides nothing is never live."""
    real = ShardAgent.accept_publish

    def accept_publish(self, origin, epoch, records):
        if records:
            real(self, origin, epoch, records)
    monkeypatch.setattr(ShardAgent, "accept_publish", accept_publish)


def mutant_mark_dead_keeps_the_member_entry(monkeypatch):
    """``mark_dead`` flips the owner beacon but leaves the member entry:
    a retired owner stays live on its stale publishes."""
    real = MembershipTable.mark_dead

    def mark_dead(self, host, now):
        kept = self._members.get(host)
        real(self, host, now)
        if kept is not None:
            self._members[host] = kept
    monkeypatch.setattr(MembershipTable, "mark_dead", mark_dead)


@pytest.mark.parametrize("mutant", [
    mutant_presence_goes_to_the_primary_owner_only,
    mutant_recordless_publish_is_not_a_beacon,
    mutant_mark_dead_keeps_the_member_entry,
], ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        test_live_hosts_is_the_owners_direct_reports()

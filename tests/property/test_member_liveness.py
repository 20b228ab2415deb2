"""Liveness is what the owners heard: ``live_hosts()`` against a model
of which frames reached whom.

A host's liveness is never relayed between owners; an owner's node
notes when a frame from each host last arrived (``ORB.heard``), and a
member sends one to the ring owners of ``host:<id>`` (and of its
records' keys) every ``update_interval``.  The law, over random
schedules of host and owner crash/restart, ``remove_owner``/
``add_owner`` and time advances on a 2x4 rig with 3 owners and
replication 2:

    H is in ``live_hosts()`` iff some live owner received a frame from
    H no longer than ``member_timeout`` ago (and has not lost its RAM
    since), or a live owner holds a fresh alive beacon of H.

The model never reads ``ORB.heard``.  It takes a frame's arrival from
two places: the network's delivery to each host's ``giop`` port (below
the ORB's listener), and each reporter *firing*, from which it works
out through the shared ring whom that publish is owed to and delivers
it to the owners that are up — so a reporter that leaves an owner out
still leaves it in the model.  The gossiped owner plane is not under
test and is read from the system as it stands: a live owner counts
itself and every owner it holds a fresh alive beacon for.

The hosts of cluster ``c1`` pipeline their oneways and publish twice a
tick, so their publishes reach each owner as one MSG_MULTI frame.

Time is kept on three interleaved grids so that no publish is in flight
when the model is compared: reporters fire on multiples of 0.5 s (or,
after a restart, at an operation instant), operations happen at 0.25 s
past, and probes at 0.125 s before an operation — at least 0.125 s
after any publish, against a 50 ms pipeline window plus ~31 ms across
the WAN.  Cluster heads are the WAN gateways and never crash, so an
owner is reachable iff it is up.

Four named mutants of the heard clock must each fail the law.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.orb.channels import PipelinedChannels
from repro.orb.core import ORB
from repro.orb.listener import Listener
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package

from tests.oracles.federation import add_owner

HOSTS = [f"c{c}h{j}" for c in range(2) for j in range(4)]
CRASHABLE = [h for h in HOSTS if not h.endswith("h0")]
PIPELINED = [h for h in HOSTS if h.startswith("c1")]
PIPELINE_WINDOW = 0.05
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
        for host in PIPELINED:
            self.rig.node(host).orb.channels = PipelinedChannels(
                self.rig.env, self.rig.network, host, PIPELINE_WINDOW)
        self.rig.node(PROVIDER).install_package(counter_package())
        self.fed = FederatedRegistry(self.rig.nodes,
                                     FederationConfig(**CONFIG))
        self.fed.deploy(owner_hosts=OWNERS)
        #: host -> {sender: when a frame from it last arrived there}
        self.heard: dict[str, dict[str, float]] = {h: {} for h in HOSTS}
        #: (host, sent, owed owners) of publishes not yet delivered
        self.in_flight: list[tuple[str, float, set]] = []
        for host in HOSTS:
            self._listen(host)
        for reporter in self.fed.reporters.values():
            self._watch(reporter)

    def _listen(self, host: str) -> None:
        handlers = self.rig.network.interface(host)._handlers
        deliver = handlers["giop"]
        table = self.heard[host]

        def on_frame(msg) -> None:
            table[msg.src] = self.rig.env.now
            deliver(msg)
        handlers["giop"] = on_frame

    def _watch(self, reporter) -> None:
        host = reporter.node.host_id
        keys = [f"host:{host}"]
        if host == PROVIDER:
            keys.append(COUNTER_IFACE.repo_id)
        fire = reporter._tick
        times = 2 if host in PIPELINED else 1

        def tick() -> None:
            owed = {owner for key in keys for owner in self.fed.ring.owners(
                key, self.fed.config.replication)}
            self.in_flight.append((host, self.rig.env.now, owed - {host}))
            for _ in range(times):
                fire()
        reporter._tick = tick

    def alive(self, host: str) -> bool:
        return self.rig.topology.host(host).alive

    # -- the model ----------------------------------------------------------
    def land(self) -> None:
        """Deliver what was sent: a publish reaches the owners that are
        up when it arrives."""
        for host, sent, owed in self.in_flight:
            for owner in owed:
                if self.alive(owner):
                    table = self.heard[owner]
                    table[host] = max(sent, table.get(host, sent))
        self.in_flight.clear()

    def expected(self) -> set[str]:
        cutoff = self.rig.env.now - self.fed.config.member_timeout
        out: set[str] = set()
        for owner, agent in self.fed.agents.items():
            if not self.alive(owner):
                continue
            out.add(owner)
            out.update(b.host for b in agent.membership.owner_beacons()
                       if b.alive and b.epoch >= cutoff)
            out.update(h for h, when in self.heard[owner].items()
                       if when >= cutoff)
        return out

    def check(self) -> None:
        self.land()
        live, expected = self.fed.live_hosts(), self.expected()
        assert live == expected, (
            f"t={self.rig.env.now}, owners {sorted(self.fed.agents)}: "
            f"wrongly live {sorted(live - expected)}, "
            f"wrongly absent {sorted(expected - live)}")

    # -- operations ---------------------------------------------------------
    def apply(self, op: str, arg) -> None:
        owners = sorted(self.fed.agents)
        if op.endswith("_owner") and op != "add_owner":
            if arg >= len(owners):
                return
            arg = owners[arg]
            op = op.removesuffix("_owner")
        if op == "crash" and arg in CRASHABLE:
            self.rig.topology.set_host_state(arg, alive=False)
            self.heard[arg].clear()             # the node's RAM is gone
        elif op == "restart" and self._may_restart(arg):
            self.rig.topology.set_host_state(arg, alive=True)
        elif op == "remove" and len(owners) > 2:
            self.fed.remove_owner(arg)
        elif (op == "add_owner" and arg not in owners
                and self.alive(arg) and len(owners) < MAX_OWNERS):
            add_owner(self.fed, arg)

    def _may_restart(self, host: str) -> bool:
        """An owner boots believing its static seed peers alive; one
        that was retired meanwhile would be a phantom owner whose later
        dead-marking is owner-plane behaviour this law does not model."""
        agent = self.fed.agents.get(host)
        return agent is None or all(p in self.fed.agents
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


#: a plain host dies, then both owners of its host key lose their RAM
#: and one comes back while the host's last publish is still fresh
LOST_RAM = [(("crash", "c0h2"), 0.5), (("crash", "c0h1"), 0.5),
            (("crash", "c0h3"), 0.5), (("restart", "c0h1"), 0.5)]


@settings(max_examples=40, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(schedule=schedules)
@example(schedule=LOST_RAM)
def test_live_hosts_is_the_owners_direct_reports(schedule):
    run_schedule(schedule)


def test_the_model_sees_everyone_on_a_quiet_rig():
    """Non-vacuity: left alone, model and system both settle on the
    whole population, and MSG_MULTI frames reach the owners."""
    world = _World()
    world.rig.run(until=world.fed.settle_time() + 0.125)
    world.check()
    assert world.fed.live_hosts() == set(HOSTS)
    assert world.rig.metrics.get("orb.pipeline.flushes") > 0


# -- mutants -----------------------------------------------------------------
# Each re-creates one plausible wrong version of the heard clock, and the
# law above must catch it.

def mutant_presence_goes_to_the_primary_owner_only(monkeypatch):
    """The reporter sends its keep-alive to the first owner of its host
    key instead of the whole replication set: one owner loss then hides
    a live host."""
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


def mutant_pipelined_frames_are_not_heard(monkeypatch):
    """The listener notes a frame's sender only for a lone GIOP message,
    not for a MSG_MULTI transmission: a pipelining member is never
    heard."""
    real = Listener.on_message

    def on_message(self, msg):
        if msg.frames == 1:
            real(self, msg)
            return
        before = self.heard.get(msg.src)
        real(self, msg)
        if before is None:
            self.heard.pop(msg.src, None)
        else:
            self.heard[msg.src] = before
    monkeypatch.setattr(Listener, "on_message", on_message)


def mutant_heard_survives_a_host_crash(monkeypatch):
    """A crash clears the node's suspects but not its heard clock: a
    restarted owner vouches for hosts it heard before it went down."""
    real = ORB._on_host_crash

    def on_host_crash(self, host):
        kept = dict(self.heard)
        real(self, host)
        self.heard.update(kept)
    monkeypatch.setattr(ORB, "_on_host_crash", on_host_crash)


def mutant_live_hosts_ignores_heard(monkeypatch):
    """``live_hosts()`` reads the owner plane only: no plain member is
    ever live."""
    def live_hosts(self):
        timeout = self.config.member_timeout
        return {h for agent in self.agents.values()
                for h in agent.membership.live_owners(agent.env.now,
                                                      timeout)}
    monkeypatch.setattr(FederatedRegistry, "live_hosts", live_hosts)


@pytest.mark.parametrize("mutant", [
    mutant_presence_goes_to_the_primary_owner_only,
    mutant_pipelined_frames_are_not_heard,
    mutant_heard_survives_a_host_crash,
    mutant_live_hosts_ignores_heard,
], ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        test_live_hosts_is_the_owners_direct_reports()

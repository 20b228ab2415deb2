"""Members publish by change: withdrawals and the reporter's memory.

- **The withdrawal window.**  A provider whose instance is destroyed and
  whose package is uninstalled leaves every owner's ``candidates``
  within one ``update_interval`` plus transit: its key goes out as a
  tombstone on the next tick.  Without the tombstone it stayed until
  its record aged out, ``record_timeout`` (15 s here).  When the
  tombstone's first frame is lost to every owner, it is gone by the
  member's next full tick, which re-sends it.
  When every send of the tombstone to the owners is lost, or the
  provider crashes before the tick that would make it, the owners drop
  the record at the next publish that leaves it out.
- **The reporter's memory is bounded** by the owners it sent to on its
  last tick: an owner taken off the ring leaves it, a re-added owner
  gets its full share and not a keep-alive, and a crash empties it, so
  the restart tick sends every owner its share.
- **An owner cut off past** ``record_timeout`` hides the record, keeps it
  through its sweeps, and offers it again one tick after the heal.
- **A change stamped below the owners' copy** (the reporter forgot its
  stamps in a crash, and its clock went back) wins at the first full
  tick once the clock has passed that copy.
"""

import pytest

from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.sim.faults import FaultInjector
from repro.registry.federation.shard import FULL_SYNC_EVERY
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.xmlmeta.descriptors import QoSSpec

from tests.oracles.federation import add_owner

REPO = COUNTER_IFACE.repo_id
PROVIDER = "c0h1"
#: one LAN hop, with room to spare
TRANSIT = 0.05
STEP = 0.01


def federation(seed=151, owners=2):
    rig = SimRig(clustered(1, 8), seed=seed)
    node = rig.node(PROVIDER)
    node.install_package(counter_package())
    node.container.create_instance("Counter")
    fed = FederatedRegistry(rig.nodes, FederationConfig(owners=owners))
    fed.deploy()
    rig.run(until=fed.settle_time())
    assert PROVIDER not in fed.agents
    return rig, fed


def offered(fed) -> dict[str, bool]:
    """Owner of REPO -> whether it offers the provider."""
    return {owner: any(c.host == PROVIDER for c in
                       fed.agents[owner].candidates(REPO, QoSSpec()))
            for owner in fed.ring.owners(REPO, fed.config.replication)}


def withdraw(rig) -> None:
    node = rig.node(PROVIDER)
    for info in node.container.instance_infos():
        node.container.destroy_instance(info.instance_id)
    package = counter_package()
    node.repository.remove(package.name, package.version)


def gone_at(rig, fed, horizon: float) -> float:
    """The first instant, in STEP steps, at which no owner offers the
    provider."""
    end = rig.env.now + horizon
    while rig.env.now < end:
        rig.run(until=rig.env.now + STEP)
        if not any(offered(fed).values()):
            return rig.env.now
    raise AssertionError(f"still offered after {horizon} s: {offered(fed)}")


def ticks_of(reporter) -> list[tuple[float, bool]]:
    """(sim time, full tick?) of each of *reporter*'s ticks from now on."""
    seen = []
    tick = reporter._tick

    def spy():
        seen.append((reporter.node.env.now,
                     reporter.reports_sent % FULL_SYNC_EVERY == 0))
        tick()
    reporter._tick = spy
    return seen


def to_a_plain_tick(rig, reporter) -> None:
    """Run until the reporter's next tick is not a full one."""
    while reporter.reports_sent % FULL_SYNC_EVERY == 0:
        rig.run(until=rig.env.now + reporter.interval)


def to_a_full_tick(rig, reporter) -> None:
    """Run until the reporter's next tick is a full one."""
    while reporter.reports_sent % FULL_SYNC_EVERY:
        rig.run(until=rig.env.now + reporter.interval)


def lose_publishes(rig, owners, count) -> list[float]:
    """Drop the next *count* ``publish_batch`` frames from PROVIDER to
    each of *owners*; keep-alives still arrive.  Returns the times of
    the frames dropped."""
    dropped = []
    for owner in owners:
        handlers = rig.network.interface(owner)._handlers
        deliver = handlers["giop"]
        left = [count]

        def on_frame(msg, deliver=deliver, left=left):
            if (msg.src == PROVIDER and b"publish_batch" in msg.payload
                    and left[0]):
                left[0] -= 1
                dropped.append(rig.env.now)
                return
            deliver(msg)
        handlers["giop"] = on_frame
    return dropped


def frames_from(rig, host) -> list[tuple[str, str]]:
    """(owner, operation) of each federation frame *host* sends."""
    sent = []
    orb = rig.node(host).orb
    send = orb.send_oneway

    def spy(ior, odef, args, meter=None, **kw):
        sent.append((ior.host_id, odef.name))
        return send(ior, odef, args, meter=meter, **kw)
    orb.send_oneway = spy
    return sent


class TestWithdrawal:
    def test_a_withdrawn_provider_leaves_within_one_interval(self):
        rig, fed = federation()
        assert all(offered(fed).values())
        start = rig.env.now
        withdraw(rig)
        window = gone_at(rig, fed, fed.config.record_timeout) - start
        assert window <= fed.config.update_interval + TRANSIT
        # What the owners hold is a tombstone, not nothing.
        for owner in fed.ring.owners(REPO, fed.config.replication):
            (record,) = [r for r in fed.agents[owner].store.records()
                         if r.key == (REPO, PROVIDER)]
            assert record.retired

    @pytest.mark.parametrize("made_on_a_full_tick", [False, True])
    def test_a_lost_tombstone_goes_out_again_on_a_full_tick(
            self, made_on_a_full_tick):
        """The tombstone's first frames are lost to every owner.  It is
        gone at the first full tick after the tick that made it, also
        when that tick was a full one itself."""
        rig, fed = federation(seed=152)
        reporter = fed.reporters[PROVIDER]
        interval = fed.config.update_interval
        if made_on_a_full_tick:
            to_a_full_tick(rig, reporter)
        else:
            to_a_plain_tick(rig, reporter)
        owners = fed.ring.owners(REPO, fed.config.replication)
        ticks = ticks_of(reporter)
        lost = set(owners)
        for owner in owners:
            handlers = rig.network.interface(owner)._handlers
            deliver = handlers["giop"]

            def on_frame(msg, owner=owner, deliver=deliver):
                if msg.src == PROVIDER and owner in lost:
                    lost.discard(owner)
                    return
                deliver(msg)
            handlers["giop"] = on_frame
        start = rig.env.now
        withdraw(rig)
        gone = gone_at(rig, fed, 3 * FULL_SYNC_EVERY * interval)
        assert not lost, "the tombstone's first frames were not dropped"
        assert ticks[0][1] == made_on_a_full_tick
        full = next(when for when, is_full in ticks[1:] if is_full)
        assert full - start <= (FULL_SYNC_EVERY + 1) * interval
        assert full <= gone <= full + TRANSIT

    def test_a_tombstone_lost_on_every_send_goes_at_the_next_publish(self):
        """Both sends of the tombstone to both owners are lost, the
        tick that made it and the full tick that sent it again, while
        keep-alives get through.  The tick after the reporter forgot it
        publishes a share without the key, and the owners drop it."""
        rig, fed = federation(seed=155)
        reporter = fed.reporters[PROVIDER]
        owners = fed.ring.owners(REPO, fed.config.replication)
        to_a_plain_tick(rig, reporter)
        ticks = ticks_of(reporter)
        dropped = lose_publishes(rig, owners, count=2)
        withdraw(rig)
        gone = gone_at(rig, fed, 3 * FULL_SYNC_EVERY
                       * fed.config.update_interval)
        forgot = next(when for when, full in ticks[1:] if full)
        assert len(dropped) == 2 * len(owners)
        assert forgot <= max(dropped) <= forgot + TRANSIT
        assert REPO not in reporter._stamped
        assert gone <= forgot + fed.config.update_interval + TRANSIT

    def test_a_withdrawal_forgotten_in_a_crash_goes_at_the_restart(self):
        """The provider crashes and restarts before the tick that would
        send the tombstone: the restart tick publishes every share
        without the key, and the owners drop it."""
        rig, fed = federation(seed=156)
        start = rig.env.now
        withdraw(rig)
        rig.topology.set_host_state(PROVIDER, alive=False)
        rig.topology.set_host_state(PROVIDER, alive=True)
        assert gone_at(rig, fed, fed.config.record_timeout) <= start + TRANSIT


class TestReporterMemory:
    def test_it_holds_only_the_last_ticks_owners(self):
        rig, fed = federation(owners=3)
        reporter = fed.reporters[PROVIDER]
        interval = fed.config.update_interval
        owners = set(fed.ring.owners(REPO, fed.config.replication)) | set(
            fed.ring.owners(f"host:{PROVIDER}", fed.config.replication))
        assert set(reporter._sent) == owners
        leaving = fed.ring.owners(REPO, fed.config.replication)[0]
        fed.remove_owner(leaving)
        rig.run(until=rig.env.now + interval)
        assert leaving not in reporter._sent
        assert set(reporter._sent) <= set(fed.agents)

        to_a_plain_tick(rig, reporter)
        sent = frames_from(rig, PROVIDER)
        add_owner(fed, leaving)
        assert leaving in fed.ring.owners(REPO, fed.config.replication)
        rig.run(until=rig.env.now + interval)
        assert (leaving, "publish_batch") in sent
        assert (leaving, "alive") not in sent
        assert any(c.host == PROVIDER for c in
                   fed.agents[leaving].candidates(REPO, QoSSpec()))

    def test_a_crash_empties_it_and_the_restart_tick_sends_every_share(self):
        rig, fed = federation(seed=153)
        reporter = fed.reporters[PROVIDER]
        to_a_plain_tick(rig, reporter)
        sent = frames_from(rig, PROVIDER)
        rig.run(until=rig.env.now + fed.config.update_interval)
        assert {op for _owner, op in sent} == {"alive"}
        rig.topology.set_host_state(PROVIDER, alive=False)
        assert reporter._sent == {} and reporter._stamped == {}
        sent.clear()
        rig.topology.set_host_state(PROVIDER, alive=True)
        assert sent and {op for _owner, op in sent} == {"publish_batch"}
        assert {owner for owner, _op in sent} == set(reporter._sent)


class TestChangeStamps:
    def test_a_change_under_a_clock_set_back_still_wins(self):
        """A key's stamps only rise: a change made after the reporter's
        clock went back 10 s is stamped past the one it replaces, so the
        owners take it instead of keeping the older content."""
        rig, fed = federation(seed=154)
        reporter = fed.reporters[PROVIDER]
        interval = fed.config.update_interval
        node = rig.node(PROVIDER)
        (info,) = node.container.instance_infos()
        node.container.destroy_instance(info.instance_id)
        rig.run(until=rig.env.now + interval)
        before = reporter._stamped[REPO].epoch
        reporter.clock_skew = -10.0
        node.container.create_instance("Counter")
        rig.run(until=rig.env.now + interval + TRANSIT)
        assert reporter._stamped[REPO].epoch > before
        for owner in fed.ring.owners(REPO, fed.config.replication):
            (offer,) = fed.agents[owner].candidates(REPO, QoSSpec())
            assert offer.running_ior


class TestCutOffOwner:
    def test_it_offers_the_record_one_tick_after_the_heal(self):
        """One owner of the key hears nothing from the provider for
        longer than ``record_timeout``: it hides the record, but its
        sweeps keep it, so the provider's first keep-alive after the
        heal brings it back, with no full tick needed."""
        rig, fed = federation(seed=157)
        interval = fed.config.update_interval
        timeout = fed.config.record_timeout
        owner = fed.ring.owners(REPO, fed.config.replication)[0]
        agent = fed.agents[owner]
        heard = rig.node(owner).orb.heard
        last = heard[PROVIDER]
        while heard[PROVIDER] == last:
            rig.run(until=rig.env.now + STEP)
        last = heard[PROVIDER]
        sweeps = []
        sweep = agent.store.sweep

        def spy(cutoff, live):
            sweeps.append(rig.env.now)
            return sweep(cutoff, live)
        agent.store.sweep = spy
        injector = FaultInjector(rig.env, rig.topology)
        cuts = injector.partition(
            [owner], [h for h in rig.topology.host_ids() if h != owner])
        rig.run(until=last + timeout + interval / 2)
        assert any(when > last + timeout for when in sweeps)
        assert not offered(fed)[owner]
        assert any(r.host == PROVIDER for r in agent.store.lookup(REPO))
        injector.heal_partition(cuts)
        healed = rig.env.now
        rig.run(until=healed + interval + TRANSIT)
        assert offered(fed)[owner]


class TestForgottenStamps:
    def test_a_change_below_the_owners_copy_wins_once_the_clock_passes(self):
        """A new instance is stamped at t; the reporter's clock then
        goes back 10 s and the provider crashes and restarts, forgetting
        its stamps; the instance is destroyed.  That change is stamped
        below the owners' copy, and every full tick re-stamps the
        record, so it wins at the first full tick 10 s past t."""
        rig, fed = federation(seed=158)
        reporter = fed.reporters[PROVIDER]
        interval = fed.config.update_interval
        node = rig.node(PROVIDER)
        (info,) = node.container.instance_infos()
        node.container.destroy_instance(info.instance_id)
        node.container.create_instance("Counter")
        rig.run(until=rig.env.now + interval)
        stamped = reporter._stamped[REPO].epoch
        reporter.clock_skew = -10.0
        rig.topology.set_host_state(PROVIDER, alive=False)
        rig.topology.set_host_state(PROVIDER, alive=True)
        (info,) = node.container.instance_infos()
        node.container.destroy_instance(info.instance_id)
        deadline = stamped + 10.0 + (FULL_SYNC_EVERY + 1) * interval
        while True:
            rig.run(until=rig.env.now + STEP)
            offers = [fed.agents[owner].candidates(REPO, QoSSpec())
                      for owner in fed.ring.owners(
                          REPO, fed.config.replication)]
            if all(offer and not offer[0].running_ior for offer in offers):
                break
            assert rig.env.now < deadline, offers

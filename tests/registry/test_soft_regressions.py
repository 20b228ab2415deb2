"""Regression tests for the soft-state reporting bugs (ISSUE 2).

Each of these fails on the pre-fix code:

1. a restarted node waited a full phase offset before its first report,
   so it stayed invisible to the MRM long after reconnecting;
2. a lost reply to an untimed invoke stranded its pending-reply entry
   forever (reports themselves are now fire-and-forget oneways, which
   this file also pins down).
"""

import dataclasses

import pytest

from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.exceptions import TIMEOUT
from repro.orb.typecodes import tc_long
from repro.registry.mrm import MrmAgent, MrmConfig
from repro.registry.prediction import PredictiveReporter
from repro.registry.softstate import SoftStateReporter
from repro.sim.topology import star
from repro.testing import SimRig

SLEEPY = InterfaceDef("IDL:test/Sleepy:1.0", "Sleepy", operations=[
    op("nap", [], tc_long),
])


class SleepyServant(Servant):
    _interface = SLEEPY

    def __init__(self, env):
        self.env = env

    def nap(self):
        yield self.env.timeout(1000.0)
        return 0


class TestRestartReregistration:
    def test_restarted_node_reappears_immediately(self):
        self.check_reappears(SoftStateReporter)

    def test_restarted_predictive_node_reappears_immediately(self):
        # ISSUE 15: the predictive reporter had its own copy of the
        # lifecycle, without the report-on-restart fix.
        self.check_reappears(PredictiveReporter)

    def check_reappears(self, reporter_cls):
        # phase offset 4.5s of a 5s interval: the pre-fix reporter
        # resumed its loop on restart and slept the whole phase before
        # re-registering; the fix reports before re-entering the loop.
        rig = SimRig(star(1), seed=2)
        mrm = MrmAgent(rig.node("hub"), "g0",
                       config=MrmConfig(update_interval=5.0))
        reporter = reporter_cls(rig.node("h0"), [mrm.ior],
                                mrm.config, phase=4.5)
        rig.run(until=5.0)
        assert "h0" in mrm.members  # first report landed at t=4.5

        rig.topology.set_host_state("h0", alive=False)
        # down long enough for the 3x-interval timeout to expire it
        rig.run(until=21.0)
        assert "h0" not in mrm.members

        sent_before = reporter.reports_sent
        rig.topology.set_host_state("h0", alive=True)
        assert reporter.reports_sent == sent_before + 1  # sent *now*
        # back in the view well within one update interval (the report
        # only needs one network hop, not a 4.5s phase sleep)
        rig.run(until=21.5)
        assert "h0" in mrm.members

    def test_periodic_loop_still_runs_after_restart(self):
        rig = SimRig(star(1), seed=2)
        mrm = MrmAgent(rig.node("hub"), "g0",
                       config=MrmConfig(update_interval=2.0))
        reporter = SoftStateReporter(rig.node("h0"), [mrm.ior],
                                     mrm.config, phase=1.0)
        rig.run(until=3.0)
        rig.topology.set_host_state("h0", alive=False)
        rig.run(until=4.0)
        rig.topology.set_host_state("h0", alive=True)
        sent_after_restart = reporter.reports_sent
        rig.run(until=10.0)
        # immediate report + resumed periodic reports
        assert reporter.reports_sent >= sent_after_restart + 2


class TestPendingTableBounded:
    def test_reports_leave_no_pending_entries(self):
        # reports go out fire-and-forget even when a replica is dead:
        # no pending-reply entry may ever be created for them.
        rig = SimRig(star(2), seed=2)
        mrm = MrmAgent(rig.node("hub"), "g0",
                       config=MrmConfig(update_interval=1.0))
        dead_ior = dataclasses.replace(mrm.ior, host_id="h1")
        rig.topology.set_host_state("h1", alive=False)
        reporter = SoftStateReporter(rig.node("h0"),
                                     [mrm.ior, dead_ior],
                                     mrm.config, phase=0.5)
        rig.run(until=20.0)
        assert reporter.reports_sent >= 15
        orb = rig.node("h0").orb
        assert orb._pending == {}
        assert orb.metrics.get("orb.oneways") >= 30  # 2 targets/report

    def test_lost_reply_without_timeout_is_reaped(self):
        # an invoke with no per-call and no default timeout used to
        # leak its pending entry forever when the server died before
        # replying; the ORB-level reply deadline now reaps it.
        rig = SimRig(star(1), seed=2, default_timeout=None)
        client = rig.node("hub").orb
        client.reply_deadline = 5.0
        ior = rig.node("h0").orb.adapter("t").activate(
            SleepyServant(rig.env))
        outcome = {}

        def proc():
            event = client.invoke(ior, SLEEPY.operations["nap"], ())
            assert len(client._pending) == 1
            with pytest.raises(TIMEOUT):
                yield event
            outcome["failed_at"] = rig.env.now

        rig.env.process(proc())

        def chaos():
            yield rig.env.timeout(0.5)
            rig.topology.set_host_state("h0", alive=False)

        rig.env.process(chaos())
        rig.run(until=30.0)
        assert outcome["failed_at"] == pytest.approx(5.0)
        assert client._pending == {}
        assert client.metrics.get("orb.timeouts") == 1

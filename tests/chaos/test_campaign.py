"""Campaign engine: seeded determinism and clean runs.

Marked ``chaos`` — full campaigns stand up the whole system and run
tens of simulated seconds; ``make chaos`` runs the long form, the
short campaigns here keep ``make check`` honest.
"""

import pytest

from repro.chaos import CampaignConfig, ChaosCampaign, build_world, run_campaign
from repro.util.errors import ConfigurationError

pytestmark = pytest.mark.chaos

SHORT = CampaignConfig(horizon=12.0, mean_gap=2.0, mean_dwell=4.0,
                       drain=6.0)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(horizon=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(mean_gap=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(max_concurrent_faults=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(weights=(("no_such_fault", 1.0),))
        with pytest.raises(ConfigurationError):
            CampaignConfig(weights=(("crash_host", 0.0),))

    def test_weights_serialized_as_ordered_pairs(self):
        cfg = CampaignConfig(weights=(("wan_flap", 2.0),
                                      ("crash_host", 1.0)))
        assert cfg.to_dict()["weights"] == [["wan_flap", 2.0],
                                            ["crash_host", 1.0]]


class TestShortCampaign:
    def test_short_campaign_runs_clean(self):
        report = run_campaign(401, config=SHORT)
        assert report.ok, report.render_text()
        assert report.actions, "campaign applied no faults"
        quiescent = [c for c in report.checks
                     if c.phase == "quiescence"]
        assert len(quiescent) == 7          # the full default panel
        assert all(c.ok for c in quiescent)
        assert report.metrics.get("chaos.actions", 0) >= 1

    def test_same_seed_is_byte_identical(self):
        a = run_campaign(402, config=SHORT)
        b = run_campaign(402, config=SHORT)
        assert a.to_json() == b.to_json()
        assert a.digest() == b.digest()

    def test_different_seeds_diverge(self):
        a = run_campaign(403, config=SHORT)
        b = run_campaign(404, config=SHORT)
        assert a.digest() != b.digest()

    def test_faults_are_healed_by_quiescence(self):
        world = build_world(405)
        campaign = ChaosCampaign(world, SHORT)
        report = campaign.run()
        assert campaign.active == []
        applied = sum(1 for a in report.actions
                      if not a.kind.startswith("heal.")
                      and a.target != "-")
        healed = sum(1 for a in report.actions
                     if a.kind.startswith("heal."))
        assert applied == healed
        # World really is healed: every host back up, links restored.
        assert set(world.alive_hosts()) == set(
            world.topology.host_ids())
        assert all(link.up for link in world.topology.links())

    def test_settle_window_derived_from_system_timers(self):
        world = build_world(406)
        campaign = ChaosCampaign(world, SHORT)
        fed = world.federation.config
        assert campaign.report.settle >= fed.member_timeout
        explicit = ChaosCampaign(world, CampaignConfig(settle=9.0))
        assert explicit.report.settle == 9.0


class TestFoundBySoak:
    def test_seed_139_lost_incarnate_reply_leaves_no_duplicate(self):
        """``make chaos-soak`` found it: a wire storm corrupts the
        reply of a repair's ``incarnate``, the retry lands on another
        host, and ``deployment.no_orphans`` caught the copy nobody
        recorded.  The full default campaign must end clean."""
        report = run_campaign(139)
        assert report.ok, report.render_text()

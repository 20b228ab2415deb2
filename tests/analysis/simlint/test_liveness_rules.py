"""SIM040: no liveness read off another host's simulator object."""

import pytest


class TestTruthReads:
    @pytest.mark.parametrize("expr", [
        "self.topology.host(h).alive",
        "topology.host(h).alive",
        "self.node.network.topology.host(h).alive",
        "agent.node.alive",
        "agent.node.host.alive",
        "self.registry.agent.node.host.alive",
    ])
    def test_another_hosts_liveness_flagged(self, lint, codes, expr):
        findings = lint(f"""
            def up(self, h, agent):
                return {expr}
        """)
        assert codes(findings) == ["SIM040"]

    @pytest.mark.parametrize("expr", [
        "self.host.alive",
        "self.node.alive",
        "self.node.host.alive",
        "record.alive",
        "self.loop.alive",
    ])
    def test_own_liveness_and_plain_flags_clean(self, lint, expr):
        findings = lint(f"""
            def up(self, record):
                return {expr}
        """)
        assert findings == []

    @pytest.mark.parametrize("path", [
        "src/repro/sim/faults.py", "src/repro/chaos/invariants.py",
        "sim/mod.py",
    ])
    def test_simulator_and_chaos_panel_exempt(self, lint, path):
        findings = lint("""
            def up(world, h):
                return world.topology.host(h).alive
        """, path=path)
        assert findings == []

    def test_a_package_merely_named_like_sim_is_not_exempt(self, lint,
                                                         codes):
        findings = lint("""
            def up(topology, h):
                return topology.host(h).alive
        """, path="src/repro/analysis/simlint/mod.py")
        assert codes(findings) == ["SIM040"]

    def test_inline_suppression(self, lint):
        findings = lint("""
            def up(topology, h):
                return topology.host(h).alive  # simlint: disable=SIM040
        """)
        assert findings == []

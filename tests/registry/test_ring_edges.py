"""ShardRing rebalance edge cases (chaos PR satellite).

The chaos campaigns drive ring membership through degenerate shapes a
steady-state deployment never sees: the last owner leaving, churn
staging the same host twice, add-then-remove flapping inside one
staging batch.  These pin down the contract at those edges, plus the
correctness of ``moved_fraction`` against a brute-force measurement.
"""

import pytest

from repro.registry.federation.ring import ShardRing, ring_point
from repro.util.errors import ConfigurationError


def ring_with(hosts, vnodes=32):
    ring = ShardRing(vnodes=vnodes)
    for host in hosts:
        ring.stage_add(host)
    ring.rebalance()
    return ring


SAMPLE_KEYS = [f"IDL:demo/K{i}:1.0" for i in range(400)]


class TestEmptyRingEdges:
    def test_remove_last_owner_empties_the_ring(self):
        ring = ring_with(["h0"])
        ring.stage_remove("h0")
        report = ring.rebalance()
        assert report.removed == ("h0",)
        assert report.hosts == ()
        assert len(ring) == 0
        # Everything the ring carried is displaced.
        assert report.moved_fraction == 1.0

    def test_empty_ring_lookup_raises_configuration_error(self):
        ring = ring_with(["h0"])
        ring.stage_remove("h0")
        ring.rebalance()
        with pytest.raises(ConfigurationError):
            ring.owners("IDL:demo/Counter:1.0")
        with pytest.raises(ConfigurationError):
            ring.primary("IDL:demo/Counter:1.0")

    def test_no_owners_asked_none_returned(self):
        # The walk once tested its cap only after an append, so 0 and
        # -1 both answered with every host.
        ring = ring_with(["a", "b", "c"])
        assert ring.owners("k", 0) == []
        assert ring.owners("k", -1) == []

    def test_first_rebalance_onto_empty_ring_moves_everything(self):
        ring = ShardRing(vnodes=8)
        ring.stage_add("h0")
        ring.stage_add("h1")
        report = ring.rebalance()
        assert report.added == ("h0", "h1")
        assert report.moved_fraction == 1.0


class TestStagingEdges:
    def test_duplicate_stage_add_raises(self):
        ring = ring_with(["h0", "h1"])
        with pytest.raises(ConfigurationError):
            ring.stage_add("h0")

    def test_stage_add_twice_before_rebalance_is_idempotent(self):
        ring = ring_with(["h0"])
        ring.stage_add("h1")
        ring.stage_add("h1")            # staged, not yet on the ring
        report = ring.rebalance()
        assert report.added == ("h1",)
        assert ring.hosts() == ["h0", "h1"]

    def test_stage_remove_unknown_host_raises(self):
        ring = ring_with(["h0"])
        with pytest.raises(ConfigurationError):
            ring.stage_remove("h9")

    def test_remove_then_add_same_host_cancels_to_noop(self):
        """A host flapping out and back inside one staging batch must
        not displace any keyspace."""
        ring = ring_with(["h0", "h1", "h2"])
        before = {key: ring.primary(key) for key in SAMPLE_KEYS}
        ring.stage_remove("h1")
        ring.stage_add("h1")
        assert not ring.pending
        report = ring.rebalance()
        assert report.added == () and report.removed == ()
        assert report.moved_fraction == 0.0
        assert {key: ring.primary(key) for key in SAMPLE_KEYS} == before

    def test_add_then_remove_same_host_cancels_to_noop(self):
        ring = ring_with(["h0", "h1"])
        ring.stage_add("h9")
        ring.stage_remove("h9")
        assert not ring.pending
        report = ring.rebalance()
        assert report.added == () and report.removed == ()
        assert report.moved_fraction == 0.0

    def test_staged_changes_invisible_to_lookups_until_rebalance(self):
        ring = ring_with(["h0", "h1"])
        before = {key: ring.primary(key) for key in SAMPLE_KEYS}
        ring.stage_add("h2")
        ring.stage_remove("h0")
        assert {key: ring.primary(key) for key in SAMPLE_KEYS} == before
        ring.rebalance()
        assert "h0" not in ring and "h2" in ring


class TestMovedFraction:
    @staticmethod
    def sampled_moved(before, after):
        return (sum(1 for key in SAMPLE_KEYS
                    if before[key] != after[key])
                / len(SAMPLE_KEYS))

    def test_moved_fraction_matches_brute_force_on_add(self):
        ring = ring_with([f"h{i}" for i in range(5)], vnodes=64)
        before = {key: ring.primary(key) for key in SAMPLE_KEYS}
        ring.stage_add("h5")
        report = ring.rebalance()
        after = {key: ring.primary(key) for key in SAMPLE_KEYS}
        sampled = self.sampled_moved(before, after)
        assert abs(report.moved_fraction - sampled) < 0.08
        # Consistent-hashing guarantee: one joiner takes ~1/n.
        assert report.moved_fraction < 0.45

    def test_moved_fraction_matches_brute_force_on_remove(self):
        ring = ring_with([f"h{i}" for i in range(6)], vnodes=64)
        before = {key: ring.primary(key) for key in SAMPLE_KEYS}
        ring.stage_remove("h3")
        report = ring.rebalance()
        after = {key: ring.primary(key) for key in SAMPLE_KEYS}
        sampled = self.sampled_moved(before, after)
        assert abs(report.moved_fraction - sampled) < 0.08
        # Only the leaver's share moves; survivors keep their keys.
        assert report.moved_fraction < 0.45
        unchanged = [key for key in SAMPLE_KEYS if before[key] != "h3"]
        assert all(after[key] == before[key] for key in unchanged)

    def test_owner_at_wraparound_key_is_stable(self):
        """A key hashing past the last vnode wraps to the first."""
        ring = ring_with(["h0", "h1", "h2"], vnodes=16)
        top = max(ring._keys)
        key = next(key for key in (f"wrap{i}" for i in range(100000))
                   if ring_point(key) > top)
        assert ring.primary(key) == ring._points[0][1]

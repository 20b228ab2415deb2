"""The MRM sweep reads its node's liveness clock, and a node never hears
itself.

``MrmAgent`` expires a member, or a child MRM's aggregate, once its node
has not heard a frame from that host for ``member_timeout``
(``ORB.heard``).  A call between two objects of one ORB is collocated
and skips the listener, so the MRM's own host, which reports to it, and
a child MRM on the same host are never heard: the sweep exempts its own
host.  Pinned here on a hub that runs a root MRM and a leaf MRM, with
the hub and two leaves reporting to the leaf; a named mutant that drops
the exemption must fail.
"""

from __future__ import annotations

import pytest

from repro.registry.mrm import MrmAgent, MrmConfig
from repro.registry.softstate import SoftStateReporter
from repro.testing import star_rig

CONFIG = MrmConfig(update_interval=1.0)
SWEEPS = 20


def co_located_world():
    rig = star_rig(2, seed=61)
    hub = rig.node("hub")
    root = MrmAgent(hub, "root", CONFIG)
    leaf = MrmAgent(hub, "g0", CONFIG, parent_iors=(root.ior,))
    for index, host in enumerate(("hub", "h0", "h1")):
        SoftStateReporter(rig.node(host), [leaf.ior], CONFIG,
                          phase=0.3 * index)
    return rig, root, leaf


def check_own_host_never_expires() -> None:
    rig, root, leaf = co_located_world()
    rig.run(until=CONFIG.member_timeout)
    for _ in range(SWEEPS):
        rig.run(until=rig.env.now + CONFIG.update_interval)
        assert sorted(leaf.members) == ["h0", "h1", "hub"], rig.env.now
        assert list(root.children) == ["g0"], rig.env.now
    assert "hub" not in rig.node("hub").orb.heard


def test_own_host_and_co_located_child_never_expire():
    check_own_host_never_expires()


def test_a_silent_remote_member_still_expires():
    """Non-vacuity: the same sweep drops a member that stopped being
    heard."""
    rig, _root, leaf = co_located_world()
    rig.run(until=CONFIG.member_timeout)
    rig.topology.set_host_state("h0", alive=False)
    rig.run(until=rig.env.now + CONFIG.member_timeout
            + 2 * CONFIG.update_interval)
    assert sorted(leaf.members) == ["h1", "hub"]
    assert leaf.expired_members == 1


def mutant_the_mrm_host_is_not_exempt(monkeypatch):
    """The sweep reads ``heard`` for every host, its own included."""
    def silent(self, host):
        deadline = self.env.now - self.config.member_timeout
        return self.node.orb.heard.get(host, float("-inf")) < deadline
    monkeypatch.setattr(MrmAgent, "_silent", silent)


def test_named_mutant_fails(monkeypatch):
    mutant_the_mrm_host_is_not_exempt(monkeypatch)
    with pytest.raises(AssertionError):
        check_own_host_never_expires()

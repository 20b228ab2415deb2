"""The chaos world's deployment, pinned as it happens.

The sim ledger compares the measured windows of the spine workloads,
and its chaos digests summarise whole campaigns: a byte the deployer
moves during set-up is folded into totals where it can hide.  This pins
the orchestrator's deploy of ``build_world(3)`` itself: its placement
and the wire it used, read the instant ``Deployer.deploy`` returns.  A
change to the deployer that claims "orchestrator side unchanged" must
leave every value here equal.
"""

import pytest

from repro.chaos import scenario
from repro.deployment.application import Deployer

pytestmark = pytest.mark.chaos

PLACEMENT = {"i0": "c0h0", "i1": "c0h1", "i2": "c0h2", "i3": "c1h0"}
COUNTERS = {
    "deploy.views.msgs": 9.0,
    "deploy.views.bytes": 828.0,
    "deploy.packages_shipped": 3.0,
    "net.messages": 55.0,
    # the federation's gossip and publishes during set-up count here too
    "net.bytes": 16692.0,
}
#: sim time at which the deploy returned
DEPLOYED_AT = 0.5786247999999997


def test_build_world_deploy_is_pinned(monkeypatch):
    seen = {}

    class Recording(Deployer):
        def _deploy(self, assembly):
            app = yield from super()._deploy(assembly)
            seen["placement"] = dict(app.placement)
            metrics = self.coordinator.metrics
            seen["counters"] = {name: metrics.get(name)
                                for name in COUNTERS}
            seen["now"] = self.env.now
            return app

    monkeypatch.setattr(scenario, "Deployer", Recording)
    world = scenario.build_world(3)
    assert world.app.placement == seen["placement"]
    assert seen == {"placement": PLACEMENT, "counters": COUNTERS,
                    "now": DEPLOYED_AT}


@pytest.mark.parametrize("seed", [5, 11])
def test_fault_free_view_is_the_truth(seed):
    # The supervisor decides by the federation's view alone.  On the
    # fault-free world (the spine's ``cscw_session``, seeds 5 and 11)
    # that view is the set of hosts that are up from the moment
    # ``build_world`` returns, so no decision there can differ from
    # one made by the truth.
    world = scenario.build_world(seed)
    start = world.rig.env.now
    for k in range(61):
        world.rig.run(until=start + 0.5 * k)
        assert world.federation.live_hosts() == set(world.alive_hosts())

"""Tests for multi-level MRM hierarchies (groups of groups)."""

import pytest

from repro.registry.groups import (
    DistributedRegistry,
    RegistryConfig,
    ROOT_GROUP,
)
from repro.sim.topology import clustered
from repro.testing import COUNTER_IFACE, SimRig, counter_package
from repro.util.errors import ConfigurationError


def three_level_rig(seed=50):
    """4 clusters of 3 hosts, organized west/east -> clusters -> hosts."""
    rig = SimRig(clustered(4, 3), seed=seed)
    cfg = RegistryConfig(update_interval=2.0, query_ttl=6)
    dr = DistributedRegistry(rig.nodes, cfg)
    hosts = rig.topology.host_ids()

    def cluster(i):
        return [h for h in hosts if h.startswith(f"c{i}")]

    dr.deploy({
        "west": {"c0": cluster(0), "c1": cluster(1)},
        "east": {"c2": cluster(2), "c3": cluster(3)},
    })
    return rig, dr


class TestTreeDeployment:
    def test_structure(self):
        rig, dr = three_level_rig()
        assert dr.root is not None
        assert set(dr.groups) == {"west", "east", "c0", "c1", "c2", "c3"}
        # leaf groups have members, intermediate ones do not
        assert dr.groups["c0"].member_hosts
        assert dr.groups["west"].member_hosts == []
        # every node has a resolver pointing at its leaf MRM
        assert set(dr.resolvers) == set(rig.topology.host_ids())

    def test_aggregates_flow_up_both_levels(self):
        rig, dr = three_level_rig()
        rig.node("c3h2").install_package(counter_package())
        rig.run(until=dr.settle_time(rounds=3))
        east = dr.groups["east"].agents[0]
        assert "c3" in east.children
        assert COUNTER_IFACE.repo_id in \
            east.children["c3"].repo_ids
        root = dr.root.agents[0]
        assert set(root.children) == {"west", "east"}
        assert COUNTER_IFACE.repo_id in \
            root.children["east"].repo_ids

    def test_query_descends_the_far_subtree(self):
        rig, dr = three_level_rig()
        rig.node("c3h2").install_package(counter_package())
        rig.run(until=dr.settle_time(rounds=3))
        # from c0 (west) to a provider in c3 (east): leaf -> west ->
        # root -> east -> c3
        ior = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c3h2"

    def test_sibling_cluster_resolved_without_root(self):
        rig, dr = three_level_rig()
        rig.node("c1h2").install_package(counter_package())
        rig.run(until=dr.settle_time(rounds=3))
        before = rig.metrics.get("registry.query.msgs")
        ior = rig.run(until=rig.node("c0h1").request_component(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c1h2"
        # c0 -> west -> c1 : two inter-MRM hops, never touching root
        assert rig.metrics.get("registry.query.msgs") - before <= 3

    def test_validation(self):
        rig = SimRig(clustered(1, 2), seed=51)
        dr = DistributedRegistry(rig.nodes, RegistryConfig())
        with pytest.raises(ConfigurationError):
            dr.deploy({})
        with pytest.raises(ConfigurationError):
            dr.deploy({"g": []})
        with pytest.raises(ConfigurationError):
            dr.deploy({ROOT_GROUP: ["c0h0"], "g": ["c0h1"]})

    def test_single_level_tree_equals_flat_deploy(self):
        rig = SimRig(clustered(1, 3), seed=52)
        rig.node("c0h2").install_package(counter_package())
        dr = DistributedRegistry(rig.nodes,
                                 RegistryConfig(update_interval=2.0))
        dr.deploy({"only": rig.topology.host_ids()})
        assert dr.root is None  # one group: no root level
        rig.run(until=dr.settle_time())
        ior = rig.run(until=rig.node("c0h0").request_component(
            COUNTER_IFACE.repo_id))
        assert ior.host_id == "c0h2"


def _c(i):
    return [f"c{i}h0", f"c{i}h1", f"c{i}h2"]


class TestDeployIsAllOrNothing:
    """A bad tree is refused before anything is stood up.

    Validating level by level while deploying left a half-built
    registry behind: ``{"a": hosts[:2], "b": []}`` raised only after the
    root MRM, group ``a``, its agents with live loops and its reporters
    already existed.
    """

    BAD_TREES = {
        "empty group": {"a": _c(0)[:2], "b": []},
        "nested empty group": {"west": {"c0": _c(0), "c1": []},
                               "east": {"c2": _c(2)}},
        "reserved root id": {"west": {"c0": _c(0), ROOT_GROUP: _c(1)},
                             "east": {"c2": _c(2)}},
        "empty level": {"west": {"c0": _c(0), "c1": _c(1)}, "east": {}},
        "empty tree": {},
        "id used twice": {"west": {"c0": _c(0)}, "east": {"c0": _c(2)}},
        "unknown host": {"west": {"c0": _c(0)}, "east": {"c2": ["nowhere"]}},
    }

    @pytest.mark.parametrize("case", sorted(BAD_TREES))
    def test_bad_tree_deploys_nothing(self, case):
        rig = SimRig(clustered(3, 3), seed=53)
        dr = DistributedRegistry(rig.nodes, RegistryConfig(supervise=True))

        def footprint():
            return ({host: (sorted(node.orb.adapter("node")._servants),
                            len(node.host.on_crash), node.resolver)
                     for host, node in rig.nodes.items()},
                    len(rig.env._queue))

        before = footprint()
        with pytest.raises(ConfigurationError):
            dr.deploy(self.BAD_TREES[case])
        assert dr.groups == {} and dr.root is None
        assert dr.reporters == {} and dr.resolvers == {}
        assert dr.supervisors == []
        # no MRM servant activated, no host loop hooked or scheduled,
        # no resolver installed
        assert footprint() == before

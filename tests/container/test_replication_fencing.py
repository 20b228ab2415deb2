"""Regression tests for replica fencing.

The bug that lived here: the coordinated sync picked its primary as
"first currently-alive member", so a crashed-and-restarted ex-primary
silently reclaimed the role and pushed its stale state over newer
backup state.
"""

import pytest

from repro.container.replication import ReplicaManager
from repro.testing import counter_package, star_rig


@pytest.fixture
def rig():
    r = star_rig(3)
    r.node("hub").install_package(counter_package())
    return r


def exec_of(rig, member):
    inst = rig.node(member.host).container.find_instance(member.instance_id)
    return inst.executor


def up(rig):
    """The test's failure detector: the hosts it has crashed are down."""
    return lambda host: rig.topology.host(host).alive


def make_group(rig, hosts):
    """Group on leaf hosts, managed from the always-alive hub (in a
    star, leaf-to-leaf traffic routes through the hub)."""
    manager = ReplicaManager(rig.node("hub"))
    group = rig.run(until=manager.create_group("Counter", hosts))
    return manager, group


class TestPrimaryFencing:
    def test_restarted_stale_primary_cannot_overwrite_newer_state(self, rig):
        manager, group = make_group(rig, ["h0", "h1", "h2"])
        exec_of(rig, group.members[0]).count = 10
        rig.run(until=manager.sync(group, up(rig)))
        assert [exec_of(rig, m).count for m in group.members] == [10, 10, 10]

        rig.topology.set_host_state("h0", alive=False)
        rig.run(until=manager.sync(group, up(rig)))  # failover promotion
        assert group.primary.host == "h1"
        assert group.epoch == 1
        # state moves on under the new primary while h0 is down
        exec_of(rig, group.members[1]).count = 99

        rig.topology.set_host_state("h0", alive=True)
        rig.run(until=manager.sync(group, up(rig)))  # stale copy is back
        # fenced out: h0 (epoch 0) never reclaims the primary role
        assert group.primary.host == "h1"
        for member in group.members:
            assert exec_of(rig, member).count == 99
        assert rig.metrics.get("replication.promotions") == 1

    def test_synced_backup_outranks_restarted_stale_member(self, rig):
        manager, group = make_group(rig, ["h0", "h1", "h2"])
        exec_of(rig, group.members[0]).count = 10
        rig.run(until=manager.sync(group, up(rig)))

        rig.topology.set_host_state("h0", alive=False)
        rig.run(until=manager.sync(group, up(rig)))  # h1 promoted, h2 synced
        exec_of(rig, group.members[1]).count = 99
        rig.run(until=manager.sync(group, up(rig)))  # h2 now carries 99

        rig.topology.set_host_state("h0", alive=True)
        rig.topology.set_host_state("h1", alive=False)
        rig.run(until=manager.sync(group, up(rig)))
        # h2 was synced at the promotion epoch, so it outranks the
        # restarted h0 (epoch 0) even though h0 sorts first
        assert group.primary.host == "h2"
        assert exec_of(rig, group.members[0]).count == 99
        assert exec_of(rig, group.members[2]).count == 99


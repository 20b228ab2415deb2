"""The epoch clamp and resurrection: a small-scope exhaustive law.

Owners cap every incoming report epoch at ``now + epoch_tolerance``
(``ShardAgent._clamp_epoch``), so a clock-skewed reporter cannot pin a
record in the future.  The cap reads the *receiving* owner's clock, so
two reports of one key can come out of it in a different order than
they were sent.  The law: once an owner holds a reporter's later report
of a key (here the tombstone, ``retired=True``), no earlier report of
that key displaces it -- the clamp never resurrects a record.

Scope, enumerated exhaustively: one reporter whose clock runs ``skew``
ahead, ``skew`` in {0, tol, 10 tol} (tol = ``epoch_tolerance``); two
owners A and B, both owning the key (replication 2); two reports of the
key, live at t = 0 and the tombstone at t = 0.5, each published to both
owners; and gossip A -> B and B -> A, a frame carrying the sender's
current copy.  A schedule is any sequence of up to 4 deliveries, the
k-th arriving at t = k, each publish delivered at most once, in every
order.  Merges go through the real ``accept_publish`` /
``accept_gossip``.

The law holds for skew 0 and tol.  At 10 tol it fails; the minimal
schedules are pinned below (ROADMAP 4(a), DESIGN.md "Shard agents"):

- any order: the tombstone reaches A before the live report does, on
  one link ([m1->A, m0->A]);
- with each link FIFO: the tombstone reaches A at t = 1, the live report
  reaches B at t = 2, and B gossips to A ([m1->A, m0->B, B->A]).

Either way the live report is clamped to a later arrival than the
tombstone, so its capped epoch is higher, and the merge order
(highest epoch wins) puts it back.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

import pytest

from repro.registry.federation import FederationConfig, ShardRing
from repro.registry.federation.records import (
    MembershipTable,
    ProviderRecord,
    RecordStore,
)
from repro.registry.federation.shard import ShardAgent
from repro.sim.stats import MetricRegistry

OWNERS = ("A", "B")
REPORTER = "R"
REPO = "IDL:demo/R:1.0"
KEY = (REPO, REPORTER)
#: the two reports' send instants: live, then the tombstone
SENT = (0.0, 0.5)
MAX_DELIVERIES = 4
CONFIG = FederationConfig(owners=2, replication=2, update_interval=5.0,
                          gossip_interval=1.0)
TOL = CONFIG.epoch_tolerance
SKEWS = (0.0, TOL, 10.0 * TOL)

#: the deliveries a schedule is built from
PUBLISHES = [("pub", m, owner) for m in (0, 1) for owner in OWNERS]
GOSSIPS = [("gossip", "A", "B"), ("gossip", "B", "A")]
DELIVERIES = PUBLISHES + GOSSIPS


def _report(m: int, skew: float) -> ProviderRecord:
    return ProviderRecord(
        repo_id=REPO, host=REPORTER, component="C", version="1.0.0",
        running_ior="", mobility="mobile", free_cpu=1.0, free_memory=8.0,
        is_tiny=False, epoch=SENT[m] + skew, retired=(m == 1))


def _owner(host: str, ring: ShardRing, clock) -> ShardAgent:
    """A shard agent with no ORB or host loop under it."""
    agent = ShardAgent.__new__(ShardAgent)
    agent.node = SimpleNamespace(
        host_id=host, env=clock, metrics=MetricRegistry(),
        network=SimpleNamespace(
            topology=frozenset(OWNERS + (REPORTER,))))
    agent.ring = ring
    agent.config = CONFIG
    agent.store = RecordStore()
    agent.membership = MembershipTable()
    return agent


def _schedules(fifo: bool):
    """Every schedule of 1..MAX_DELIVERIES deliveries, shortest first;
    with *fifo*, a publish link delivers the live report first."""
    for length in range(1, MAX_DELIVERIES + 1):
        for schedule in product(DELIVERIES, repeat=length):
            pubs = [d for d in schedule if d[0] == "pub"]
            if len(set(pubs)) != len(pubs):
                continue
            if fifo and any(("pub", 0, owner) in pubs
                            and pubs.index(("pub", 1, owner))
                            < pubs.index(("pub", 0, owner))
                            for owner in OWNERS
                            if ("pub", 1, owner) in pubs):
                continue
            yield schedule


def resurrects(schedule, skew: float) -> bool:
    """Play *schedule*; True once an owner that held the tombstone
    holds the live report again."""
    ring = ShardRing(vnodes=4)
    for host in OWNERS:
        ring.stage_add(host)
    ring.rebalance()
    clock = SimpleNamespace(now=0.0)
    owners = {host: _owner(host, ring, clock) for host in OWNERS}
    retired = set()
    for step, delivery in enumerate(schedule, start=1):
        clock.now = float(step)
        if delivery[0] == "pub":
            _kind, m, host = delivery
            report = _report(m, skew)
            owners[host].accept_publish([report.to_value()])
        else:
            _kind, sender, host = delivery
            copy = owners[sender].store._records.get(KEY)
            if copy is not None:
                owners[host].accept_gossip([copy.to_value()], [])
        for host, agent in owners.items():
            held = agent.store._records.get(KEY)
            if held is None:
                continue
            if held.retired:
                retired.add(host)
            elif host in retired:
                return True
    return False


def first_failure(skew: float, fifo: bool):
    for schedule in _schedules(fifo):
        if resurrects(schedule, skew):
            return schedule
    return None


@pytest.mark.parametrize("skew", SKEWS[:2], ids=["0", "tol"])
@pytest.mark.parametrize("fifo", [False, True], ids=["any", "fifo"])
def test_the_clamp_never_resurrects_within_tolerance(skew, fifo):
    assert first_failure(skew, fifo) is None


def test_the_schedule_space_is_what_the_law_claims():
    schedules = list(_schedules(fifo=False))
    assert len(schedules) == len(set(schedules))
    assert max(map(len, schedules)) == MAX_DELIVERIES
    assert (("pub", 1, "A"), ("pub", 0, "A")) in schedules
    assert (("pub", 1, "A"), ("pub", 0, "A")) not in set(
        _schedules(fifo=True))


@pytest.mark.parametrize("fifo, schedule", [
    (False, (("pub", 1, "A"), ("pub", 0, "A"))),
    (True, (("pub", 1, "A"), ("pub", 0, "B"), ("gossip", "B", "A"))),
], ids=["any", "fifo"])
def test_skew_past_tolerance_resurrects_by_the_named_schedule(fifo,
                                                              schedule):
    """A known defect (ROADMAP 4(a)), pinned: the minimal failing
    schedule at skew 10 tol.  A fix makes this test fail; the law above
    then takes the third skew."""
    assert first_failure(SKEWS[2], fifo) == schedule

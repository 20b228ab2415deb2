"""The federated registry's soft state merges the same in any order.

Gossip delivers records and beacons in whatever order, as often as the
rounds resend them, so an owner's tables must be a join: the merge
rule of ``repro.registry.federation.records`` is "highest epoch wins,
the reporting host breaks ties, then the content".  The law, over lists
of records drawn with duplicates:

- *order-free*: any permutation of the list gives the same store --
  the same ``records()`` set and the same ``lookup()`` for every repo;
  the same owner beacons and member epochs in a ``MembershipTable``;
- *idempotent*: re-applying any record (or beacon, or member epoch)
  changes nothing and is not reported as a win;
- *max*: each key holds the maximum of the records applied to it, where
  ``beats`` orders any two records first by ``(epoch, host)``.  A store key
  names its host, so within one key the order is by epoch; the host
  term is what makes ``beats`` a total order across hosts;
- *dead stays dead*: after ``mark_dead(host, now)``, an alive beacon of
  that host with an epoch up to ``now`` leaves it dead.

The law found two gaps, both closed in ``records.py``: two different
reports of one host at one epoch (a wire bit-flip that still decodes
makes one) merged by arrival order, so owners could disagree until the
next epoch -- ``beats`` now orders them by content, the tombstone
first; and ``mark_dead`` left an owner that was already down at its
old epoch, so an alive beacon from between the two declarations undid
the second one.

The member plane is not a tombstone store: a member publish newer than
the host's last one is fresh evidence it is up, so ``observe_member``
is checked for the max law only.  Two named mutants must each fail the
law: ``beats`` without the host tie-break, and an ``apply`` where the
last writer wins.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.registry.federation import records as rec
from repro.registry.federation.records import (
    HostBeacon,
    MembershipTable,
    ProviderRecord,
    RecordStore,
)

REPOS = ["IDL:a:1.0", "IDL:b:1.0"]
HOSTS = ["h0", "h1", "h2"]
EPOCHS = [0.0, 1.0, 2.5]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    report_multiple_bugs=False)
#: a mutant only has to fail; its shrunk counterexample is not read.
MUTANT_SETTINGS = settings(SETTINGS, phases=[Phase.generate])

_records = st.builds(
    lambda repo, host, epoch, cpu, retired: ProviderRecord(
        repo_id=repo, host=host, component="C", version="1.0.0",
        running_ior="", mobility="mobile", free_cpu=cpu, free_memory=8.0,
        is_tiny=False, epoch=epoch, retired=retired),
    st.sampled_from(REPOS), st.sampled_from(HOSTS),
    st.sampled_from(EPOCHS), st.sampled_from([1.0, 2.0]), st.booleans())
_beacons = st.builds(HostBeacon, st.sampled_from(HOSTS),
                     st.sampled_from(EPOCHS), st.booleans())
_members = st.tuples(st.sampled_from(HOSTS), st.sampled_from(EPOCHS))


def _with_duplicates(items):
    """A list drawn from a pool with replacement, and a permutation."""
    return st.lists(items, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=10)).flatmap(
        lambda drawn: st.tuples(st.just(drawn), st.permutations(drawn)))


def _order(item):
    return (item.epoch, item.host)


def _store(records) -> RecordStore:
    store = RecordStore()
    for record in records:
        store.apply(record, now=0.0)
    return store


def _store_state(store: RecordStore):
    return (set(store.records()),
            {repo: set(store.lookup(repo)) for repo in REPOS})


def _table(beacons=(), members=()) -> MembershipTable:
    table = MembershipTable()
    for beacon in beacons:
        table.apply(beacon)
    for host, epoch in members:
        table.observe_member(host, epoch)
    return table


def _table_state(table: MembershipTable):
    return set(table.owner_beacons()), dict(table._members)


def _check_beats_orders(items) -> None:
    for a in items:
        for b in items:
            if _order(a) != _order(b):
                assert a.beats(b) == (_order(a) > _order(b)), (a, b)


def check_store_law(drawn, permuted) -> None:
    store = _store(drawn)
    assert _store_state(store) == _store_state(_store(permuted)), \
        "the merge depends on arrival order"
    before = _store_state(store)
    for record in drawn:
        assert not store.apply(record, now=1.0), f"{record} won twice"
    assert _store_state(store) == before, "re-applying changed the store"
    _check_beats_orders(drawn)
    by_key = {}
    for record in drawn:
        by_key.setdefault(record.key, []).append(record)
    winners = {record.key: record for record in store.records()}
    assert set(winners) == set(by_key)
    for key, candidates in by_key.items():
        assert not any(c.beats(winners[key]) for c in candidates), key
        assert _order(winners[key]) == max(map(_order, candidates)), key


def check_table_law(drawn, permuted, members, members_permuted) -> None:
    table = _table(drawn, members)
    assert _table_state(table) == _table_state(
        _table(permuted, members_permuted)), \
        "the merge depends on arrival order"
    before = _table_state(table)
    for beacon in drawn:
        assert not table.apply(beacon), f"{beacon} won twice"
    for host, epoch in members:
        assert not table.observe_member(host, epoch)
    assert _table_state(table) == before, "re-applying changed the table"
    _check_beats_orders(drawn)
    for host in {b.host for b in drawn}:
        assert _order(table.get(host)) == max(
            _order(b) for b in drawn if b.host == host), host
    for host in {h for h, _ in members}:
        assert table._members[host] == max(
            e for h, e in members if h == host), host


def check_dead_stays_dead(beacons, now, stale) -> None:
    table = _table(beacons)
    host = stale.host
    table.mark_dead(host, now)
    if table.get(host) is None:
        return                      # never an owner here: nothing to undo
    table.apply(HostBeacon(host, min(stale.epoch, now), alive=True))
    assert not table.get(host).alive, "a stale beacon undid mark_dead"
    assert host not in table.live(now, timeout=10.0)


@given(_with_duplicates(_records))
@SETTINGS
def test_record_store_merge_law(lists):
    check_store_law(*lists)


@given(_with_duplicates(_beacons), _with_duplicates(_members))
@SETTINGS
def test_membership_merge_law(beacons, members):
    check_table_law(*beacons, *members)


@given(st.lists(_beacons, max_size=6), st.sampled_from(EPOCHS), _beacons)
@SETTINGS
def test_a_stale_alive_beacon_never_undoes_mark_dead(beacons, now, stale):
    check_dead_stays_dead(beacons, now, stale)


# -- mutants -----------------------------------------------------------------

def mutant_beats_without_host_tie_break(monkeypatch):
    """Highest epoch wins and an equal epoch never does: two records
    of different hosts at one epoch are unordered."""
    for cls in (ProviderRecord, HostBeacon):
        monkeypatch.setattr(cls, "beats",
                            lambda self, other: self.epoch > other.epoch)


def mutant_last_writer_wins(monkeypatch):
    """``apply`` stores whatever arrives last, stale or not."""
    def store_apply(self, record, now):
        self._records[record.key] = record
        self._by_repo.setdefault(record.repo_id, {})[record.host] = record
        self._touched[record.key] = now
        return True

    def table_apply(self, beacon):
        self._owners[beacon.host] = beacon
        return True
    monkeypatch.setattr(rec.RecordStore, "apply", store_apply)
    monkeypatch.setattr(rec.MembershipTable, "apply", table_apply)


def _law_under(settings_):
    @given(_with_duplicates(_records), _with_duplicates(_beacons),
           _with_duplicates(_members), st.sampled_from(EPOCHS), _beacons)
    @settings_
    def law(records, beacons, members, now, stale):
        check_store_law(*records)
        check_table_law(*beacons, *members)
        check_dead_stays_dead(beacons[0], now, stale)
    return law


@pytest.mark.parametrize("mutant", [
    mutant_beats_without_host_tie_break,
    mutant_last_writer_wins,
], ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant, monkeypatch):
    mutant(monkeypatch)
    with pytest.raises(AssertionError):
        _law_under(MUTANT_SETTINGS)()

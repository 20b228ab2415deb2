"""Versioned records the federated registry gossips.

Two record kinds travel between shard owners:

- :class:`ProviderRecord` — "host H can provide repo-id R": one per
  (repo_id, host) pair, carrying the reuse/instantiation facts a
  resolver needs (running IOR, installable component, headroom).
- :class:`HostBeacon` — "shard owner H was alive (or declared dead) at
  epoch T": the membership view's small **owner plane**.  A delta
  gossip round carries its beacons dated within one round and no
  provider records, an anti-entropy round all of both.

Whether a plain host is up is not a record: an owner reads it from
``ORB.heard``, when a frame from that host last reached the owner's
node.  A member's publishes and keep-alives are such frames; nothing
relays them.

Both carry an **epoch** and merge by the epidemic rule: highest epoch
wins, ties broken by the reporting host id, and two different reports
of one host at one instant by their content — the tombstone
(``retired``, ``alive=False``) first.  ``beats`` is therefore a total
order, and merging is commutative, associative and idempotent — the
order gossip frames arrive in cannot change the converged state
(``tests/property/test_record_merge_law.py``).

A beacon's epoch is when its owner was seen and dates it.  A record's
is its **change stamp**: its reporter's clock at the tick the record's
content last changed, so an unchanged record keeps its epoch and a
member need not re-send it; a full tick re-stamps it
(``FederationReporter``).  The epoch only orders a record's merges.  An
owner keeps a live record while it hears the record's host
(``ShardAgent.candidates``) and until a publish from that host leaves it
out (``RecordStore.retain``).  A tombstone is what a member sends for a
repo-id it stopped providing; owners sweep it by its epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.orb.typecodes import (
    struct_tc,
    tc_boolean,
    tc_double,
    tc_string,
)
from repro.registry.view import Candidate

PROVIDER_RECORD_TC = struct_tc("ProviderRecord", [
    ("repo_id", tc_string),
    ("host", tc_string),
    ("component", tc_string),       # "" when running-only
    ("version", tc_string),
    ("running_ior", tc_string),     # "" when only installed
    ("mobility", tc_string),
    ("free_cpu", tc_double),
    ("free_memory", tc_double),
    ("is_tiny", tc_boolean),
    ("epoch", tc_double),
    ("retired", tc_boolean),        # tombstone: provider went away
], repo_id="IDL:corbalc/Federation/ProviderRecord:1.0")

HOST_BEACON_TC = struct_tc("HostBeacon", [
    ("host", tc_string),
    ("epoch", tc_double),
    ("alive", tc_boolean),
], repo_id="IDL:corbalc/Federation/HostBeacon:1.0")


@dataclass(frozen=True)
class ProviderRecord:
    repo_id: str
    host: str
    component: str
    version: str
    running_ior: str
    mobility: str
    free_cpu: float
    free_memory: float
    is_tiny: bool
    epoch: float
    retired: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.repo_id, self.host)

    def beats(self, other: "ProviderRecord") -> bool:
        """Epidemic merge order: highest epoch, host id breaks ties,
        then content, a tombstone first."""
        if self.epoch != other.epoch or self.host != other.host:
            return (self.epoch, self.host) > (other.epoch, other.host)
        return self._content() > other._content()

    def _content(self) -> tuple:
        return (self.retired, self.running_ior, self.component,
                self.version, self.mobility, self.free_cpu,
                self.free_memory, self.is_tiny)

    def to_value(self) -> dict:
        return {
            "repo_id": self.repo_id, "host": self.host,
            "component": self.component, "version": self.version,
            "running_ior": self.running_ior, "mobility": self.mobility,
            "free_cpu": self.free_cpu, "free_memory": self.free_memory,
            "is_tiny": self.is_tiny, "epoch": self.epoch,
            "retired": self.retired,
        }

    @classmethod
    def from_value(cls, value: dict) -> "ProviderRecord":
        return cls(**value)

    def to_candidate(self, group: str = "") -> Candidate:
        return Candidate(
            host=self.host, component=self.component,
            version=self.version, running_ior=self.running_ior,
            mobility=self.mobility, free_cpu=self.free_cpu,
            free_memory=self.free_memory, is_tiny=self.is_tiny,
            group=group)


@dataclass(frozen=True)
class HostBeacon:
    host: str
    epoch: float
    alive: bool

    def beats(self, other: "HostBeacon") -> bool:
        return (self.epoch, self.host, not self.alive) > (
            other.epoch, other.host, not other.alive)

    def to_value(self) -> dict:
        return {"host": self.host, "epoch": self.epoch,
                "alive": self.alive}

    @classmethod
    def from_value(cls, value: dict) -> "HostBeacon":
        return cls(**value)


class RecordStore:
    """One shard owner's replica of its slice of the record space."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, str], ProviderRecord] = {}
        self._by_repo: dict[str, dict[str, ProviderRecord]] = {}
        self.applied = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._records)

    def apply(self, record: ProviderRecord, now: float | None = None) -> bool:
        """Merge one record; True when it won against the incumbent.
        *now* is not read: records merge by their own epochs."""
        current = self._records.get(record.key)
        if current is not None and not record.beats(current):
            self.rejected += 1
            return False
        self._records[record.key] = record
        self._by_repo.setdefault(record.repo_id, {})[record.host] = record
        self.applied += 1
        return True

    def retain(self, host: str, repo_ids: set[str]) -> None:
        """Drop the live records of *host* whose repo-id is not in
        *repo_ids*: a publish from *host* is its whole share for this
        owner, so what it leaves out the member no longer provides, and
        the tombstone saying so did not arrive."""
        self._drop([key for key, rec in self._records.items()
                    if rec.host == host and not rec.retired
                    and rec.repo_id not in repo_ids])

    def _drop(self, keys: list[tuple[str, str]]) -> None:
        for key in keys:
            rec = self._records.pop(key)
            repo = self._by_repo.get(rec.repo_id)
            if repo is not None:
                repo.pop(rec.host, None)
                if not repo:
                    del self._by_repo[rec.repo_id]

    def lookup(self, repo_id: str) -> list[ProviderRecord]:
        found = self._by_repo.get(repo_id)
        if not found:
            return []
        return [r for r in found.values() if not r.retired]

    def records(self) -> list[ProviderRecord]:
        return list(self._records.values())

    def sweep(self, cutoff: float,
              live: Callable[[ProviderRecord], bool]) -> int:
        """Expire soft state: drop tombstones dated before *cutoff* and
        live records for which *live* is false."""
        stale = [key for key, rec in self._records.items()
                 if (rec.epoch < cutoff if rec.retired else not live(rec))]
        self._drop(stale)
        return len(stale)

    def clear(self) -> None:
        self._records.clear()
        self._by_repo.clear()


class MembershipTable:
    """One owner's **owner plane**: which hosts serve shards.

    ``HostBeacon``s, gossiped and merged by the epidemic epoch rule,
    with explicit dead-marking on failure detection or retirement.
    Whether a plain host is up is not kept here: it is what the
    owner's node heard (``ORB.heard``).
    """

    def __init__(self) -> None:
        self._owners: dict[str, HostBeacon] = {}

    def apply(self, beacon: HostBeacon) -> bool:
        current = self._owners.get(beacon.host)
        if current is not None and not beacon.beats(current):
            return False
        self._owners[beacon.host] = beacon
        return True

    def get(self, host: str):
        return self._owners.get(host)

    def owner_beacons(self, since: float = float("-inf")) -> list[HostBeacon]:
        """The owner plane's beacons dated at or after *since*, in
        plane order (by default the whole plane)."""
        return [b for b in self._owners.values() if b.epoch >= since]

    def silent(self, cutoff: float) -> list[str]:
        """Owners still believed alive whose beacons predate *cutoff*."""
        return [b.host for b in self._owners.values()
                if b.alive and b.epoch < cutoff]

    def mark_dead(self, host: str, now: float) -> None:
        """Locally declare an owner down (spreads on the next round).
        The dead beacon takes the epoch *now* even when the owner was
        already down, so no alive beacon dated at or before the
        declaration undoes it."""
        current = self._owners.get(host)
        if current is not None and (current.alive or current.epoch < now):
            self._owners[host] = replace(current, epoch=now, alive=False)

    def live_owners(self, now: float, timeout: float) -> list[str]:
        return sorted(b.host for b in self._owners.values()
                      if b.alive and b.epoch >= now - timeout)

    def clear(self) -> None:
        self._owners.clear()

"""Versioned records the federated registry gossips.

Two record kinds travel between shard owners:

- :class:`ProviderRecord` — "host H can provide repo-id R": one per
  (repo_id, host) pair, carrying the reuse/instantiation facts a
  resolver needs (running IOR, installable component, headroom).
- :class:`HostBeacon` — "shard owner H was alive (or declared dead) at
  epoch T": the membership view's small **owner plane**, gossiped
  whole every round.

The population-sized **member plane** ("plain host H was last heard
from at epoch T") never travels between owners: it is soft state held
by the ring owners of ``host:<id>``, fed by that host's own publishes.

Both carry a **report epoch** (the sim-time their source observed the
fact) and merge by the epidemic rule the issue prescribes: highest
epoch wins, ties broken by the reporting host id.  Merging is therefore
commutative, associative and idempotent — the order gossip frames
arrive in cannot change the converged state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        """Epidemic merge order: highest epoch, host id breaks ties."""
        return (self.epoch, self.host) > (other.epoch, other.host)

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
        return (self.epoch, self.host) > (other.epoch, other.host)

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
        self._touched: dict[tuple[str, str], float] = {}
        self.applied = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._records)

    def apply(self, record: ProviderRecord, now: float) -> bool:
        """Merge one record; True when it won against the incumbent."""
        current = self._records.get(record.key)
        if current is not None and not record.beats(current):
            self.rejected += 1
            return False
        self._records[record.key] = record
        self._by_repo.setdefault(record.repo_id, {})[record.host] = record
        self._touched[record.key] = now
        self.applied += 1
        return True

    def lookup(self, repo_id: str) -> list[ProviderRecord]:
        found = self._by_repo.get(repo_id)
        if not found:
            return []
        return [r for r in found.values() if not r.retired]

    def records(self) -> list[ProviderRecord]:
        return list(self._records.values())

    def changed_since(self, since: float) -> list[ProviderRecord]:
        """Records merged at-or-after *since* (the gossip delta)."""
        return [self._records[key]
                for key, when in self._touched.items() if when >= since]

    def sweep(self, cutoff: float) -> int:
        """Expire soft state: drop records reported before *cutoff*."""
        stale = [key for key, rec in self._records.items()
                 if rec.epoch < cutoff]
        for key in stale:
            rec = self._records.pop(key)
            self._touched.pop(key, None)
            repo = self._by_repo.get(rec.repo_id)
            if repo is not None:
                repo.pop(rec.host, None)
                if not repo:
                    del self._by_repo[rec.repo_id]
        return len(stale)

    def clear(self) -> None:
        self._records.clear()
        self._by_repo.clear()
        self._touched.clear()


class MembershipTable:
    """One owner's view of the federation's hosts.

    Two planes that must not corrupt each other:

    - the **owner plane** (:meth:`apply`, ``HostBeacon``s): which hosts
      serve shards.  Gossiped; merged by the epidemic epoch rule, with
      explicit dead-marking on failure detection or retirement.
    - the **member plane** (:meth:`observe_member`, bare epochs): when
      each host that publishes to this owner (it holds the host's
      ``host:<id>`` key or one of its records' keys) was last heard
      from.  Local, never gossiped — the maximum observed epoch wins,
      and silence past a timeout means "down".

    A shard owner is also a reporting member; keeping the planes
    separate is what stops its member publishes (fresh epochs) from
    demoting its owner beacon.
    """

    def __init__(self) -> None:
        self._owners: dict[str, HostBeacon] = {}
        self._members: dict[str, float] = {}

    def __len__(self) -> int:
        return len(set(self._owners) | set(self._members))

    def __contains__(self, host: str) -> bool:
        return host in self._owners or host in self._members

    def apply(self, beacon: HostBeacon) -> bool:
        current = self._owners.get(beacon.host)
        if current is not None and not beacon.beats(current):
            return False
        self._owners[beacon.host] = beacon
        return True

    def observe_member(self, host: str, epoch: float) -> bool:
        if epoch <= self._members.get(host, -1.0):
            return False
        self._members[host] = epoch
        return True

    def get(self, host: str):
        return self._owners.get(host)

    def owner_beacons(self) -> list[HostBeacon]:
        """The owner plane alone (small; gossiped whole every round)."""
        return list(self._owners.values())

    def silent(self, cutoff: float) -> list[str]:
        """Hosts not heard from since *cutoff*: owners still believed
        alive first, then members (a host stale in both appears twice)."""
        out = [b.host for b in self._owners.values()
               if b.alive and b.epoch < cutoff]
        out.extend(host for host, epoch in self._members.items()
                   if epoch < cutoff)
        return out

    def mark_dead(self, host: str, now: float) -> None:
        """Locally declare an owner down (spreads on the next round)."""
        current = self._owners.get(host)
        if current is not None and current.alive:
            self._owners[host] = replace(current, epoch=now, alive=False)
        self._members.pop(host, None)

    def live(self, now: float, timeout: float) -> set[str]:
        """Hosts believed alive: declared so, and recently enough."""
        cutoff = now - timeout
        out = {b.host for b in self._owners.values()
               if b.alive and b.epoch >= cutoff}
        out.update(host for host, epoch in self._members.items()
                   if epoch >= cutoff)
        return out

    def live_owners(self, now: float, timeout: float) -> list[str]:
        return sorted(b.host for b in self._owners.values()
                      if b.alive and b.epoch >= now - timeout)

    def clear(self) -> None:
        self._owners.clear()
        self._members.clear()

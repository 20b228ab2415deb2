"""Consistent-hash shard ring with virtual nodes.

The federated registry partitions its record space by consistent
hashing over repo-ids: each shard owner projects ``vnodes`` points
onto a 64-bit ring, and a key is owned by the first ``n`` *distinct*
hosts clockwise of its digest.  Virtual nodes smooth the partition so
no owner carries a pathological share of the keyspace.

Membership changes are **staged**: :meth:`ShardRing.stage_add` and
:meth:`ShardRing.stage_remove` only record intent, and nothing moves
until an explicit :meth:`ShardRing.rebalance` applies the whole batch
at once.  That keeps lookups stable while a churn episode is still
unfolding, and lets the caller observe exactly how much of the
keyspace a membership change displaced (the classic consistent-hashing
guarantee: ~``k/n`` for one host out of *n*).

The ring is deliberately standalone — no ORB, no simulation imports —
so the partitioned-deployment work (ROADMAP item 5) can reuse it
unchanged.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

from repro.util.errors import ConfigurationError

_SPACE = 1 << 64


def ring_point(key: str) -> int:
    """Stable 64-bit ring coordinate of *key*."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`ShardRing.rebalance` call changed."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    #: fraction of the keyspace whose primary owner changed.
    moved_fraction: float
    hosts: tuple[str, ...] = field(default=())


class ShardRing:
    """Consistent-hash ring over shard-owner hosts."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._hosts: set[str] = set()
        self._points: list[tuple[int, str]] = []   # sorted (point, host)
        self._keys: list[int] = []                 # parallel, for bisect
        self._staged_add: set[str] = set()
        self._staged_remove: set[str] = set()

    # -- membership (staged) ------------------------------------------------
    def hosts(self) -> list[str]:
        return sorted(self._hosts)

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, host: str) -> bool:
        return host in self._hosts

    @property
    def pending(self) -> bool:
        return bool(self._staged_add or self._staged_remove)

    def stage_add(self, host: str) -> None:
        if host in self._hosts and host not in self._staged_remove:
            raise ConfigurationError(f"{host!r} is already on the ring")
        self._staged_remove.discard(host)
        if host not in self._hosts:
            self._staged_add.add(host)

    def stage_remove(self, host: str) -> None:
        if host in self._staged_add:
            self._staged_add.discard(host)
            return
        if host not in self._hosts:
            raise ConfigurationError(f"{host!r} is not on the ring")
        self._staged_remove.add(host)

    def rebalance(self) -> RebalanceReport:
        """Apply all staged membership changes in one step."""
        added = tuple(sorted(self._staged_add))
        removed = tuple(sorted(self._staged_remove))
        old_points = self._points
        old_keys = self._keys
        self._hosts |= self._staged_add
        self._hosts -= self._staged_remove
        self._staged_add = set()
        self._staged_remove = set()
        self._points = sorted(
            (ring_point(f"{host}#{v}"), host)
            for host in self._hosts for v in range(self.vnodes))
        self._keys = [p for p, _ in self._points]
        moved = self._moved_fraction(old_points, old_keys)
        return RebalanceReport(added=added, removed=removed,
                               moved_fraction=moved,
                               hosts=tuple(self.hosts()))

    def _moved_fraction(self, old_points, old_keys) -> float:
        """Share of the keyspace whose primary owner changed."""
        if not old_points or not self._points:
            return 1.0
        cuts = sorted({p for p, _ in old_points}
                      | {p for p, _ in self._points})
        moved = 0
        for i, cut in enumerate(cuts):
            nxt = cuts[(i + 1) % len(cuts)]
            span = (nxt - cut) % _SPACE or _SPACE
            if (self._owner_at(old_points, old_keys, cut)
                    != self._owner_at(self._points, self._keys, cut)):
                moved += span
        return moved / _SPACE

    @staticmethod
    def _owner_at(points, keys, point: int) -> str:
        idx = bisect.bisect_right(keys, point)
        if idx == len(points):
            idx = 0
        return points[idx][1]

    # -- lookups ------------------------------------------------------------
    def owners(self, key: str, n: int = 1) -> list[str]:
        """The first *n* distinct hosts clockwise of *key*'s point.

        Staged (un-rebalanced) membership changes are invisible here:
        lookups answer from the last rebalanced ring.
        """
        if not self._points:
            raise ConfigurationError("ring has no hosts")
        n = min(n, len(self._hosts))
        idx = bisect.bisect_right(self._keys, ring_point(key))
        out: list[str] = []
        for step in range(len(self._points)):
            _, host = self._points[(idx + step) % len(self._points)]
            if host not in out:
                out.append(host)
                if len(out) == n:
                    break
        return out

    def primary(self, key: str) -> str:
        return self.owners(key, 1)[0]


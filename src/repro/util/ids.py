"""Deterministic identifier generation.

Random UUIDs would break simulation reproducibility, so identifiers are
drawn from per-prefix counters, one :class:`IdGenerator` per owner.
"""

from __future__ import annotations

import itertools
from collections import defaultdict


class IdGenerator:
    """Produces identifiers like ``node-0``, ``node-1``, ``msg-0``...

    A fresh generator always starts each prefix at zero, so two
    simulations constructed the same way emit identical id streams.
    """

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = defaultdict(itertools.count)

    def next(self, prefix: str) -> str:
        """Return the next identifier for *prefix*."""
        return f"{prefix}-{next(self._counters[prefix])}"

    def reset(self) -> None:
        """Restart every counter at zero."""
        self._counters.clear()

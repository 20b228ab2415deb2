"""Deterministic identifier generation.

Random UUIDs would break simulation reproducibility, so identifiers are
drawn from per-prefix counters.  :func:`uid` uses a module-level
generator, which is convenient for code that does not carry an explicit
:class:`IdGenerator`; simulations that need full isolation create their
own instance.
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


_GLOBAL = IdGenerator()


def uid(prefix: str) -> str:
    """Return an identifier from the process-wide generator.

    Only use this for objects whose identity never crosses a determinism
    boundary (e.g. log records); simulation entities should use the
    engine's own :class:`IdGenerator`.
    """
    return _GLOBAL.next(prefix)

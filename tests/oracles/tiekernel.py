"""Same-instant order as a free choice: a tie-permuting event queue.

The kernel pops events by (time, priority, event id), so events due at
one instant run in the order they were scheduled.  For NORMAL events
(timeouts: message arrivals, CPU costs, sleeps) that order is an
accident of the simulator -- two frames landing in one instant could
land either way -- so no recorded figure may depend on it.

:func:`permuted_ties` swaps ``repro.sim.kernel``'s ``heapq`` for a shim
that keys each NORMAL push on a seeded splitmix64 of its event id.  The
mix is a bijection of 64-bit ids, so keys stay unique and each tie seed
fixes one order of every same-instant tie.  With ``urgent=True`` URGENT
ties (triggers, process starts, interrupts) are permuted too, which
breaks the order the kernel promises for them (its docstring and
``tests/sim/test_kernel_ordering.py``); that is how a test shows the
shim reaches the kernel.
"""

from __future__ import annotations

import contextlib
import heapq

from repro.sim import kernel

MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a bijection of 64-bit integers."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


class _TieShim:
    """The two ``heapq`` functions the kernel calls, re-keying ties."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self, seed: int, urgent: bool) -> None:
        self.salt = splitmix64(seed)
        self.permuted = (kernel.NORMAL, kernel.URGENT) if urgent \
            else (kernel.NORMAL,)

    def heappush(self, queue: list, item: tuple) -> None:
        when, priority, eid, event = item
        if priority in self.permuted:
            item = (when, priority, splitmix64(eid ^ self.salt), event)
        heapq.heappush(queue, item)


@contextlib.contextmanager
def permuted_ties(seed: int, urgent: bool = False):
    """Run the block with same-instant NORMAL ties (and URGENT ones, if
    *urgent*) popped in an order fixed by *seed*."""
    saved = kernel.heapq
    kernel.heapq = _TieShim(seed, urgent)
    try:
        yield
    finally:
        kernel.heapq = saved

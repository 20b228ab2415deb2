"""Size/age-batched delivery.

A :class:`BatchWriter` accumulates items and hands them to its flush
callback as one batch when either threshold trips:

- **size** — the batch reached ``max_batch`` items;
- **age** — the *oldest* buffered item has waited ``max_age`` simulated
  seconds (armed lazily with one token-versioned kernel timer, the same
  exactly-one-live-timer pattern the ORB uses for its deadline sweeper
  and pipeline flush windows).

The size threshold is also the buffer's bound: ``append`` flushes the
moment the buffer holds ``max_batch`` items, so it never holds more.
"""

from __future__ import annotations

from typing import Callable

from repro.obs import names
from repro.sim.kernel import Environment, Timeout
from repro.sim.stats import MetricRegistry
from repro.util.errors import ConfigurationError


class BatchWriter:
    """Accumulate items; flush by size or age."""

    __slots__ = ("env", "_flush_cb", "max_batch", "max_age",
                 "_buf", "_token", "_armed", "_ctr_flushes", "_ctr_items")

    def __init__(self, env: Environment, flush: Callable, max_batch: int,
                 max_age: float, metrics: MetricRegistry) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, "
                                     f"got {max_batch}")
        if max_age <= 0:
            raise ConfigurationError(f"max_age must be > 0, got {max_age}")
        self.env = env
        self._flush_cb = flush
        self.max_batch = max_batch
        self.max_age = max_age
        self._buf: list = []
        self._token = 0          # versions the armed age timer
        self._armed = False
        self._ctr_flushes = metrics.counter(names.BUS_FLUSHES)
        self._ctr_items = metrics.counter(names.BUS_FLUSHED)

    # -- state -----------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._buf)

    # -- feeding ---------------------------------------------------------
    def append(self, item) -> None:
        """Buffer *item*; may flush synchronously on the size threshold."""
        buf = self._buf
        buf.append(item)
        if len(buf) >= self.max_batch:
            self.flush()
        elif not self._armed:
            self._armed = True
            self._token += 1
            Timeout(self.env, self.max_age,
                    self._token).callbacks.append(self._age_timer)

    def _age_timer(self, ev) -> None:
        if ev._value != self._token:
            return  # superseded: a flush already emptied this window
        self._armed = False
        self.flush()

    # -- flushing --------------------------------------------------------
    def flush(self) -> None:
        """Deliver everything buffered now (no-op on an empty buffer)."""
        if not self._buf:
            return
        batch = self._buf
        self._buf = []
        self._armed = False
        self._token += 1   # invalidate any armed age timer
        self._ctr_flushes.value += 1
        self._ctr_items.value += len(batch)
        self._flush_cb(batch)

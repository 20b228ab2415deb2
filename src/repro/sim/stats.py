"""Metric collection: counters, gauges and histograms.

Protocol benchmarks (bandwidth, message counts, staleness, failover
latency) read their numbers from a :class:`MetricRegistry` owned by the
simulation, rather than each protocol keeping ad-hoc state.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterable, Optional


class Counter:
    """A monotonically increasing (or arbitrary additive) scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Constant-memory summary of a sampled level (a table depth, a
    queue length): how many samples, the last one, the largest, their
    sum.  Recording never allocates, so a gauge sampled on every
    request costs the same after a million requests as after one."""

    __slots__ = ("name", "count", "last", "total", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.last: float = float("nan")
        self.total = 0.0
        self._max: float = float("-inf")

    def record(self, value: float) -> None:
        self.count += 1
        self.last = value
        self.total += value
        if value > self._max:
            self._max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def max(self) -> float:
        return self._max if self.count else float("nan")

    def __repr__(self) -> str:
        return f"Gauge({self.name}: n={self.count}, last={self.last})"


class Histogram:
    """Values binned into fixed log-scale buckets.

    Bucket ``i`` covers ``(edge[i-1], edge[i]]`` with geometric edges
    ``lo * growth**i``; values at or below ``lo`` land in bucket 0 and
    values above the top edge in a final overflow bucket.  Fixed edges
    keep recording O(log buckets) and make histograms of the same shape
    directly comparable (the latency/size reports rely on this).

    Percentiles are estimated by linear interpolation inside the
    containing bucket, clamped to the observed min/max, so they are
    exact at the bucket edges and never off by more than one bucket.
    """

    __slots__ = ("name", "edges", "counts", "count", "total",
                 "_min", "_max")

    def __init__(self, name: str, lo: float = 1e-6, growth: float = 2.0,
                 buckets: int = 48) -> None:
        if lo <= 0 or growth <= 1.0 or buckets < 1:
            raise ValueError(
                f"histogram needs lo > 0, growth > 1, buckets >= 1 "
                f"(got lo={lo}, growth={growth}, buckets={buckets})"
            )
        self.name = name
        self.edges: list[float] = [lo * growth ** i for i in range(buckets)]
        #: one count per edge, plus the overflow bucket.
        self.counts: list[int] = [0] * (buckets + 1)
        self.count = 0
        self.total = 0.0
        self._min: float = float("inf")
        self._max: float = float("-inf")

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def min(self) -> float:
        return self._min if self.count else float("nan")

    def max(self) -> float:
        return self._max if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100])."""
        if not self.count:
            return float("nan")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        rank = (q / 100.0) * self.count
        seen = 0.0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= rank:
                frac = 0.0 if n == 0 else max(0.0, (rank - seen)) / n
                lower = self.edges[i - 1] if 0 < i <= len(self.edges) \
                    else self._min
                upper = self.edges[i] if i < len(self.edges) else self._max
                value = lower + (upper - lower) * frac
                return min(max(value, self._min), self._max)
            seen += n
        return self._max

    def __repr__(self) -> str:
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean():.4g})")


class MetricRegistry:
    """Namespace of counters, gauges and histograms, keyed by dotted
    names."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._labelled: dict[str, dict[str, float]] = defaultdict(dict)

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, lo: float = 1e-6, growth: float = 2.0,
                  buckets: int = 48) -> Histogram:
        """Return the named histogram, creating it on first use.

        Shape arguments only apply on creation; later calls return the
        existing histogram unchanged.
        """
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, lo=lo, growth=growth, buckets=buckets)
        return h

    def find_histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram if it exists, without creating it."""
        return self._histograms.get(name)

    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def add_labelled(self, name: str, label: str, amount: float = 1.0) -> None:
        """Accumulate into a labelled counter family (e.g. bytes per link)."""
        self._labelled[name][label] = self._labelled[name].get(label, 0.0) + amount

    def labelled(self, name: str) -> dict[str, float]:
        return dict(self._labelled.get(name, {}))

    def labelled_family(self, name: str) -> dict[str, float]:
        """The live label->value dict for *name*, for hot-path callers
        that accumulate directly instead of going through
        :meth:`add_labelled` per event."""
        return self._labelled[name]

    def counters(self) -> dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def get(self, name: str, default: float = 0.0) -> float:
        c = self._counters.get(name)
        return c.value if c is not None else default

    def names(self) -> Iterable[str]:
        yield from self._counters
        yield from self._gauges
        yield from self._histograms

    def snapshot(self) -> dict[str, float]:
        """Flat dict of every counter, the mean of every gauge, and
        count/mean/p50/p95/p99 of every histogram."""
        out = self.counters()
        for name, g in self._gauges.items():
            out[f"{name}.mean"] = g.mean()
        for name, h in self._histograms.items():
            out[f"{name}.count"] = float(h.count)
            out[f"{name}.mean"] = h.mean()
            out[f"{name}.p50"] = h.percentile(50)
            out[f"{name}.p95"] = h.percentile(95)
            out[f"{name}.p99"] = h.percentile(99)
        return out

"""Window timing, percentiles and counter snapshots shared by workloads.

Work is fixed, not time-boxed: a workload's op count is a constant
rate (calibrated once on the reference box, the same on both commits of
any comparison) times ``--seconds``, so every simulated statistic
repeats exactly for a seed and only the host numbers carry noise.  The
measured window is cut into :data:`N_CHUNKS` equal chunks and each is
timed.

``ops_per_s`` is taken from the **fastest** chunk.  Noise on this box
only ever adds time, in bursts that last from a tenth of a second to a
whole window (a run in which every chunk but two ran 25 % slow is not
rare), and the work is deterministic, so the minimum is the noise-free
estimator: over 110 runs its across-run spread stayed under 6 % on
every workload, where the median chunk's reached 15 %.  The median
chunk's rate and the chunk quartiles are kept per layer
(``driver.median_chunk_ops_per_s``, ``driver.chunk_iqr_ratio``) as the
representative figure and the run's own dispersion.
"""

from __future__ import annotations

import resource
import statistics
import time

N_CHUNKS = 20

#: Share of a workload's ops run before the window so first-touch code
#: generation, plan caches and lazily created servants are paid in
#: set-up (the guide: "let caches fill and lazy set-up finish").
WARMUP_SHARE = 0.02


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(round(q / 100.0 * (len(ordered) - 1)))
    return ordered[rank]


def weighted_percentile(pairs, q: float) -> float:
    """Nearest-rank percentile of ``(value, weight)`` pairs."""
    pairs = sorted(pairs)
    total = sum(w for _v, w in pairs)
    if total == 0:
        return 0.0
    target = q / 100.0 * (total - 1)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen > target:
            return value
    return pairs[-1][0]


def rss_mb() -> float:
    """Peak resident set of this process so far (Linux: KiB -> MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Window:
    """Wall-clock record of one measured window, chunk by chunk."""

    def __init__(self, ops: int) -> None:
        self.ops = ops
        self.chunk_walls: list[float] = []
        self.op_walls: list[float] = []     # closed-loop workloads only
        self.start = 0.0
        self.end = 0.0
        self._mark = 0.0

    def begin(self) -> None:
        self.start = self._mark = time.perf_counter()

    def chunk_done(self) -> None:
        now = time.perf_counter()
        self.chunk_walls.append(now - self._mark)
        self._mark = now

    def finish(self) -> None:
        """End of window; open-loop drains land here, not in a chunk."""
        self.end = time.perf_counter()

    # -- derived ---------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def ops_per_s(self) -> float:
        return self.ops / len(self.chunk_walls) / min(self.chunk_walls)

    def median_chunk_ops_per_s(self) -> float:
        per_chunk = self.ops / len(self.chunk_walls)
        return per_chunk / statistics.median(self.chunk_walls)

    def chunk_quartiles(self) -> tuple:
        q1, q2, q3 = statistics.quantiles(self.chunk_walls, n=4)
        return q1, q2, q3

    def chunk_iqr_ratio(self) -> float:
        q1, q2, q3 = self.chunk_quartiles()
        return (q3 - q1) / q2


def chunk_bounds(n_ops: int) -> list:
    """``N_CHUNKS`` equal ``(lo, hi)`` slices of ``range(n_ops)``."""
    size = n_ops // N_CHUNKS
    return [(c * size, (c + 1) * size) for c in range(N_CHUNKS)]


def round_ops(rate: float, seconds: float, multiple: int = 1) -> int:
    """Op count for *seconds* at *rate*, a positive multiple of
    ``N_CHUNKS * multiple`` so every chunk holds the same work."""
    unit = N_CHUNKS * multiple
    return max(1, round(rate * seconds / unit)) * unit


class Counters:
    """Delta reader over a :class:`MetricRegistry` (public ``get`` /
    ``counters`` only; ``snapshot`` would also reduce every series)."""

    def __init__(self, metrics) -> None:
        self.metrics = metrics
        self._base: dict = {}

    def mark(self) -> None:
        self._base = self.metrics.counters()

    def delta(self, name: str) -> float:
        return self.metrics.get(name) - self._base.get(name, 0.0)

    def delta_prefix(self, prefix: str) -> float:
        now = self.metrics.counters()
        return sum(value - self._base.get(name, 0.0)
                   for name, value in now.items()
                   if name.startswith(prefix))

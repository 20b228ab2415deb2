"""Named, independently-seeded random streams.

Every source of randomness in a simulation draws from its own named
stream so that adding a new randomized subsystem does not perturb the
draws seen by existing ones.  Streams are derived from a single root
seed with :class:`numpy.random.SeedSequence`, which guarantees
independence between streams and reproducibility across runs.
"""

from __future__ import annotations

import zlib

import numpy as np


def derived_stream(name: str, seed: int) -> np.random.Generator:
    """A fresh generator derived from (*name*, *seed*).

    The sanctioned construction path for seed-parameterized pure
    functions that live outside any registry (e.g. a worker shard that
    receives its seed over the wire): the same (name, seed) pair always
    yields an identical sequence, and distinct names never collide even
    for equal seeds.  Registry streams use the same derivation, so a
    ``derived_stream(n, s)`` matches ``RngRegistry(s).stream(n)``.
    """
    # crc32 gives a stable 32-bit digest of the name; spawning from
    # SeedSequence(seed, digest) keeps streams independent.
    digest = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(digest,))
    return np.random.default_rng(seq)


class RngRegistry:
    """Factory for named random streams derived from one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The same (root seed, name) pair always yields an identical
        sequence, regardless of creation order of other streams.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = derived_stream(name, self._seed)
            self._streams[name] = gen
        return gen


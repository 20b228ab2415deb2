"""Executable content behind package binaries.

A real CORBA-LC node dlopen()s the DLL found in a package.  Here the
executable content is a Python factory callable registered under the
entry-point name the implementation descriptor carries; "loading" a
binary is a registry lookup, and the payload bytes in the archive give
the package its realistic size on the wire.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sim.rng import derived_stream
from repro.util.errors import ConfigurationError


class BinaryRegistry:
    """entry-point name -> executable-implementation factory.

    The factory signature is deliberately opaque here (the container
    defines what it calls it with); packaging only needs identity.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable] = {}

    def register(self, entry_point: str, factory: Callable,
                 replace: bool = False) -> Callable:
        if not replace and entry_point in self._factories:
            if self._factories[entry_point] is factory:
                return factory
            raise ConfigurationError(
                f"entry point {entry_point!r} already registered"
            )
        self._factories[entry_point] = factory
        return factory

    def resolve(self, entry_point: str) -> Callable:
        try:
            return self._factories[entry_point]
        except KeyError:
            raise ConfigurationError(
                f"unknown entry point {entry_point!r} (binary not loadable)"
            ) from None

    def __contains__(self, entry_point: str) -> bool:
        return entry_point in self._factories


#: Shared default registry; components register their factories at
#: import time, mirroring how linking puts symbols in a process image.
GLOBAL_BINARIES = BinaryRegistry()


def synthetic_payload(size: int, seed: int = 0,
                      compressibility: float = 0.5) -> bytes:
    """Deterministic payload bytes of *size* with tunable redundancy.

    ``compressibility`` 0.0 produces incompressible (random) bytes, 1.0
    produces a constant run; in between mixes the two, so packaging
    benchmarks can show realistic compression ratios.
    """
    if size < 0:
        raise ConfigurationError(f"negative payload size {size}")
    if not 0.0 <= compressibility <= 1.0:
        raise ConfigurationError(
            f"compressibility must be in [0,1], got {compressibility}"
        )
    n_random = int(size * (1.0 - compressibility))
    rng = derived_stream("packaging.synthetic_payload", seed)
    random_part = rng.integers(0, 256, size=n_random, dtype=np.uint8).tobytes()
    return random_part + b"\x2a" * (size - n_random)



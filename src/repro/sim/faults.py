"""Fault injection: crashes, restarts, link cuts, partitions, churn —
and wire faults (corruption, truncation, duplication, reordering).

The paper demands protocols that "support spurious node failures and
node disconnections (and re-connections) gracefully" (§2.4.3); this
module produces exactly those event patterns, deterministically.  The
:class:`WireFaultModel` extends the fault vocabulary below the message
level: real networks do not only *drop* messages, they also deliver
damaged, repeated and out-of-order ones, and a robust ORB must survive
every byte pattern such a wire can produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.sim.kernel import Environment
from repro.sim.rng import RngRegistry
from repro.sim.topology import Topology

#: how long after the original a duplicated message is delivered again
DUP_DELAY = 0.002


@dataclass(frozen=True)
class WireFaultProfile:
    """Per-link fault rates, each an independent per-message probability.

    ``corrupt`` flips 1..``max_flips`` random bits in the payload,
    ``truncate`` cuts the payload at a random boundary, ``duplicate``
    delivers the message a second time ``DUP_DELAY`` later, ``reorder``
    holds the message back by ``reorder_delay`` so traffic sent after it
    arrives first.  Corruption and truncation only act on ``bytes``
    payloads (the ORB's GIOP frames); opaque payloads pass unharmed.
    """

    corrupt: float = 0.0
    truncate: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    max_flips: int = 4
    reorder_delay: float = 0.05

    def __post_init__(self) -> None:
        for name in ("corrupt", "truncate", "duplicate", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")
        if self.max_flips < 1:
            raise ValueError("max_flips must be >= 1")

    @property
    def active(self) -> bool:
        return (self.corrupt or self.truncate or self.duplicate
                or self.reorder) > 0


class WireFaultModel:
    """Seeded message-level fault injection, consulted by the Network.

    Install with ``network.wire_faults = WireFaultModel(...)`` (or the
    Network constructor argument) and set the profile every link
    applies.  Faults compose along a route: a message
    crossing two lossy links rolls the dice on each.  All randomness
    comes from one named RNG stream, so a given seed produces the same
    fault pattern on every run.
    """

    STREAM = "net.wire_faults"

    def __init__(self, rngs: RngRegistry, metrics,
                 default: Optional[WireFaultProfile] = None) -> None:
        self.rng = rngs.stream(self.STREAM)
        self.metrics = metrics
        self.default = default

    # -- configuration -----------------------------------------------------
    def set_default(self, profile: Optional[WireFaultProfile]) -> None:
        self.default = profile

    # -- application -------------------------------------------------------
    def apply(self, payload, links) -> list[tuple[object, float]]:
        """Roll faults for one message crossing *links*.

        Returns the deliveries to schedule as ``(payload, extra_delay)``
        pairs — usually one, two when duplicated, always at least one
        (wire faults damage messages; outright loss stays the business
        of the links' ``loss`` probability).
        """
        profile = self.default
        if profile is None or not profile.active:
            return [(payload, 0.0)]
        extra_delay = 0.0
        duplicated = False
        for _ in links:
            if profile.corrupt and self.rng.random() < profile.corrupt:
                mutated = self._flip_bits(payload, profile.max_flips)
                if mutated is not None:
                    payload = mutated
                    self.metrics.counter("net.corrupted.bitflip").inc()
            if profile.truncate and self.rng.random() < profile.truncate:
                mutated = self._truncate(payload)
                if mutated is not None:
                    payload = mutated
                    self.metrics.counter("net.corrupted.truncate").inc()
            if profile.duplicate and self.rng.random() < profile.duplicate:
                duplicated = True
                self.metrics.counter("net.corrupted.duplicate").inc()
            if profile.reorder and self.rng.random() < profile.reorder:
                extra_delay += profile.reorder_delay
                self.metrics.counter("net.corrupted.reorder").inc()
        deliveries = [(payload, extra_delay)]
        if duplicated:
            deliveries.append((payload, extra_delay + DUP_DELAY))
        return deliveries

    def _flip_bits(self, payload, max_flips: int) -> Optional[bytes]:
        if not isinstance(payload, (bytes, bytearray)) or not payload:
            return None
        data = bytearray(payload)
        n_flips = 1 + int(self.rng.integers(0, max_flips))
        for _ in range(n_flips):
            pos = int(self.rng.integers(0, len(data)))
            data[pos] ^= 1 << int(self.rng.integers(0, 8))
        return bytes(data)

    def _truncate(self, payload) -> Optional[bytes]:
        if not isinstance(payload, (bytes, bytearray)) or not payload:
            return None
        cut = int(self.rng.integers(0, len(payload)))
        return bytes(payload[:cut])


class FaultInjector:
    """Scheduled, scripted faults against a topology."""

    def __init__(self, env: Environment, topology: Topology) -> None:
        self.env = env
        self.topology = topology
        self.log: list[tuple[float, str, str]] = []

    # -- immediate --------------------------------------------------------
    def crash_host(self, host_id: str) -> None:
        self.topology.set_host_state(host_id, alive=False)
        self.log.append((self.env.now, "crash", host_id))

    def restart_host(self, host_id: str) -> None:
        self.topology.set_host_state(host_id, alive=True)
        self.log.append((self.env.now, "restart", host_id))

    def cut_link(self, a: str, b: str) -> None:
        self.topology.set_link_state(a, b, up=False)
        self.log.append((self.env.now, "cut", f"{a}|{b}"))

    def heal_link(self, a: str, b: str) -> None:
        self.topology.set_link_state(a, b, up=True)
        self.log.append((self.env.now, "heal", f"{a}|{b}"))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> list[tuple[str, str]]:
        """Cut every link crossing the two host groups; returns the cuts."""
        set_a, set_b = set(group_a), set(group_b)
        cut = []
        for link in self.topology.links():
            if (link.a in set_a and link.b in set_b) or (
                link.a in set_b and link.b in set_a
            ):
                if link.up:
                    self.cut_link(link.a, link.b)
                    cut.append((link.a, link.b))
        return cut

    def heal_partition(self, cuts: Iterable[tuple[str, str]]) -> None:
        for a, b in cuts:
            self.heal_link(a, b)

    # -- scheduled ----------------------------------------------------------
    def crash_at(self, time: float, host_id: str) -> None:
        self._at(time, lambda: self.crash_host(host_id))

    def restart_at(self, time: float, host_id: str) -> None:
        self._at(time, lambda: self.restart_host(host_id))

    # -- churn scenarios -------------------------------------------------
    def outage_at(self, time: float, host_id: str,
                  duration: float) -> None:
        """One scripted crash/restart cycle: down at *time*, back after
        *duration* — the unit of deterministic churn scenarios."""
        self.crash_at(time, host_id)
        self.restart_at(time + duration, host_id)

    def outages(self, plan: Iterable[tuple[str, float, float]]) -> None:
        """Schedule a whole churn script of (host, time, duration)."""
        for host_id, time, duration in plan:
            self.outage_at(time, host_id, duration)

    def _at(self, time: float, action) -> None:
        delay = time - self.env.now
        if delay < 0:
            raise ValueError(f"fault time {time} is in the past")
        self.env.timeout(delay).callbacks.append(lambda _ev: action())


class ChurnModel:
    """Random crash/restart churn over a set of hosts.

    Each selected host independently alternates between up-time drawn
    from Exp(mean_uptime) and down-time drawn from Exp(mean_downtime).
    Determinism comes from the named RNG stream.
    """

    def __init__(
        self,
        env: Environment,
        injector: FaultInjector,
        rngs: RngRegistry,
        hosts: Iterable[str],
        mean_uptime: float,
        mean_downtime: float,
        protected: Optional[Iterable[str]] = None,
    ) -> None:
        self.env = env
        self.injector = injector
        self.rng = rngs.stream("churn")
        self.mean_uptime = mean_uptime
        self.mean_downtime = mean_downtime
        protected_set = set(protected or ())
        self.hosts = [h for h in hosts if h not in protected_set]
        self.crashes = 0
        self.restarts = 0
        self._procs = [env.process(self._churn(h)) for h in self.hosts]

    def _churn(self, host_id: str):
        while True:
            yield self.env.timeout(float(self.rng.exponential(self.mean_uptime)))
            self.injector.crash_host(host_id)
            self.crashes += 1
            yield self.env.timeout(float(self.rng.exponential(self.mean_downtime)))
            self.injector.restart_host(host_id)
            self.restarts += 1

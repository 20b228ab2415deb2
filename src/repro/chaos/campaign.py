"""The seeded chaos-campaign engine.

A :class:`ChaosCampaign` drives a :class:`~repro.chaos.scenario.ChaosWorld`
through a plan of fault actions sampled from one named RNG stream
(``chaos.plan``): every gap, action kind, target and dwell time is a
deterministic function of the world seed, so a campaign — and any
violation it finds — replays byte-for-byte from the seed alone.

The campaign loop alternates *inject* and *observe*: apply a fault,
probe the invariant panel mid-flight (lenient: self-healing takes
time), eventually revert the fault.  After the horizon it heals
everything, waits out a settle window derived from the system's own
timers (gossip convergence, supervisor backoff), stops the client
traffic, lets in-flight work drain, and then probes *strictly*: at
quiescence every invariant must hold, or the campaign reports a
violation carrying the seed and the trailing action trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.actions import ACTIONS, AppliedFault
from repro.chaos.invariants import (
    MID,
    QUIESCENCE,
    default_monitors,
    probe_monitor,
)
from repro.chaos.report import (
    ChaosAction,
    ChaosReport,
    InvariantCheck,
    InvariantViolation,
)
from repro.chaos.scenario import ChaosWorld, build_world
from repro.util.errors import ConfigurationError

#: Named RNG stream every plan draw comes from.
PLAN_STREAM = "chaos.plan"

#: Default action mix: crashes and partitions dominate, the subtler
#: faults (corruption, skew, slowdown) season the plan.
DEFAULT_WEIGHTS = (
    ("crash_host", 3.0),
    ("partition_cluster", 2.0),
    ("wan_flap", 2.0),
    ("wire_storm", 1.5),
    ("slow_host", 1.5),
    ("clock_skew", 1.0),
    ("isolate_owner", 1.0),
)


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign: length, tempo and fault mix."""

    horizon: float = 60.0             # injection window (sim seconds)
    mean_gap: float = 3.0             # between consecutive actions
    mean_dwell: float = 6.0           # how long a fault stays applied
    max_concurrent_faults: int = 3
    max_dead: int = 2                 # hosts allowed down at once
    settle: float = 0.0               # 0 -> derived from world timers
    drain: float = 6.0                # post-stop traffic drain
    ttl_bound: float = 6.0            # resolution latency invariant
    weights: tuple = DEFAULT_WEIGHTS

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be > 0")
        if self.mean_gap <= 0 or self.mean_dwell <= 0:
            raise ConfigurationError("gap/dwell means must be > 0")
        if self.max_concurrent_faults < 1:
            raise ConfigurationError("max_concurrent_faults must be >= 1")
        for kind, weight in self.weights:
            if kind not in ACTIONS:
                raise ConfigurationError(f"unknown action kind {kind!r}")
            if weight < 0:
                raise ConfigurationError(f"negative weight for {kind!r}")
        if not any(w > 0 for _, w in self.weights):
            raise ConfigurationError("all action weights are zero")

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon, "mean_gap": self.mean_gap,
            "mean_dwell": self.mean_dwell,
            "max_concurrent_faults": self.max_concurrent_faults,
            "max_dead": self.max_dead, "settle": self.settle,
            "drain": self.drain, "ttl_bound": self.ttl_bound,
            # Ordered pairs, not a mapping: the weighted draw walks the
            # tuple in order, so order is part of the plan's identity.
            "weights": [[kind, weight] for kind, weight in self.weights],
        }


@dataclass
class CampaignState:
    """Mutable bookkeeping the actions consult to avoid stacking the
    same fault twice on one target."""

    max_dead: int = 2
    partitioned: set = field(default_factory=set)
    cut_links: set = field(default_factory=set)
    slowed: set = field(default_factory=set)
    skewed: set = field(default_factory=set)


class ChaosCampaign:
    """Drives one seeded campaign over one world."""

    def __init__(self, world: ChaosWorld,
                 config: Optional[CampaignConfig] = None) -> None:
        self.world = world
        self.config = config or CampaignConfig()
        self.monitors = default_monitors(self.config.ttl_bound)
        self.rng = world.rig.rngs.stream(PLAN_STREAM)
        self.state = CampaignState(max_dead=self.config.max_dead)
        self.active: list[AppliedFault] = []
        self.report = ChaosReport(
            seed=world.seed, horizon=self.config.horizon,
            settle=self._settle_window(),
            config=self.config.to_dict())

    # -- timing -------------------------------------------------------------
    def _settle_window(self) -> float:
        """Quiescence wait derived from the system's own timers: long
        enough for membership to re-converge and the supervisor to
        exhaust its repair backoff."""
        if self.config.settle > 0:
            return self.config.settle
        fed = self.world.federation.config
        sup = self.world.supervisor
        gossip = (fed.member_timeout + 2.0 * fed.update_interval
                  + 4.0 * fed.gossip_interval)
        healing = sup.backoff_cap + 3.0 * sup.interval
        return max(gossip, healing) + 1.0

    # -- public API ---------------------------------------------------------
    def run(self) -> ChaosReport:
        """Execute the whole campaign synchronously; returns the report."""
        self.world.rig.run_process(self._drive())
        return self.report

    # -- engine -------------------------------------------------------------
    def _drive(self):
        env = self.world.rig.env
        cfg = self.config
        t_end = env.now + cfg.horizon
        while env.now < t_end:
            gap = min(max(float(self.rng.exponential(cfg.mean_gap)),
                          0.25), 4.0 * cfg.mean_gap)
            yield env.timeout(gap)
            self._revert_expired()
            if len(self.active) >= cfg.max_concurrent_faults:
                self._revert_fault(self.active[0])
            self._apply_one()
            yield from self._probe(MID)
        # Heal the world and demand convergence.
        while self.active:
            self._revert_fault(self.active[0])
        yield env.timeout(self.report.settle)
        self.world.stop_clients()
        yield env.timeout(cfg.drain)
        yield from self._probe(QUIESCENCE)
        self._snapshot_metrics()

    def _pick_kind(self) -> str:
        weights = self.config.weights
        total = sum(w for _, w in weights)
        draw = float(self.rng.random()) * total
        for kind, weight in weights:
            draw -= weight
            if draw < 0:
                return kind
        return weights[-1][0]

    def _apply_one(self) -> None:
        env = self.world.rig.env
        metrics = self.world.rig.metrics
        kind = self._pick_kind()
        result = ACTIONS[kind](self.world, self.rng, self.state)
        if result is None:
            self.report.actions.append(ChaosAction(
                time=env.now, kind=kind, target="-",
                detail=(("skipped", "no eligible target"),)))
            metrics.counter("chaos.skipped").inc()
            return
        target, revert, detail = result
        dwell = min(max(float(self.rng.exponential(
            self.config.mean_dwell)), 1.0), 4.0 * self.config.mean_dwell)
        fault = AppliedFault(kind=kind, target=target,
                             applied_at=env.now,
                             until=env.now + dwell, revert=revert,
                             detail=detail)
        self.active.append(fault)
        self.report.actions.append(ChaosAction(
            time=env.now, kind=kind, target=target,
            detail=tuple(sorted({**detail,
                                 "dwell": round(dwell, 3)}.items()))))
        metrics.counter("chaos.actions").inc()
        metrics.counter(f"chaos.action.{kind}").inc()
        obs = self.world.rig.obs
        if obs is not None:
            span = obs.span(f"chaos:{kind}", host=target,
                            attrs={"target": target})
            obs.tracer.end_span(span)

    def _revert_expired(self) -> None:
        now = self.world.rig.env.now
        for fault in list(self.active):
            if fault.until <= now:
                self._revert_fault(fault)

    def _revert_fault(self, fault: AppliedFault) -> None:
        self.active.remove(fault)
        fault.revert()
        self.report.actions.append(ChaosAction(
            time=self.world.rig.env.now, kind=f"heal.{fault.kind}",
            target=fault.target))
        self.world.rig.metrics.counter("chaos.heals").inc()

    def _probe(self, phase: str):
        env = self.world.rig.env
        for monitor in self.monitors:
            ok, detail = yield from probe_monitor(
                monitor, self.world, phase)
            self.report.checks.append(InvariantCheck(
                time=env.now, name=monitor.name, phase=phase,
                ok=ok, detail=detail))
            if ok or (phase == MID and not monitor.strict_mid):
                continue
            trace = tuple(a.summary()
                          for a in self.report.actions[-6:])
            self.report.violations.append(InvariantViolation(
                time=env.now, name=monitor.name, phase=phase,
                detail=detail, seed=self.world.seed, trace=trace))
            self.world.rig.metrics.counter("chaos.violations").inc()

    def _snapshot_metrics(self) -> None:
        metrics = self.world.rig.metrics
        keys = (
            "chaos.actions", "chaos.heals", "chaos.skipped",
            "chaos.violations", "orb.retries", "orb.retries.shed",
            "breaker.fast_fails",
            "supervisor.recoveries", "supervisor.promotions",
            "supervisor.stranded", "supervisor.recovery.deferred",
            "supervisor.repair.fenced", "supervisor.orphans_swept",
            "federation.epoch_clamped", "federation.lookup.failover",
            "federation.lookup.ring_fallback",
            "federation.lookup.flood_fallback",
        )
        snapshot = {key: metrics.get(key) for key in keys
                    if metrics.get(key)}
        snapshot["client.ok"] = self.world.client_ok
        snapshot["client.errors"] = self.world.client_errors
        self.report.metrics = snapshot


def run_campaign(seed: int,
                 config: Optional[CampaignConfig] = None) -> ChaosReport:
    """Build the standard world for *seed* and run one campaign."""
    return ChaosCampaign(build_world(seed), config).run()

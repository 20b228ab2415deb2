"""The chaos-campaign fault vocabulary.

Every action is a pure function of ``(world, rng)`` drawing *only*
from the campaign's seeded plan stream, so a campaign's action
sequence is a deterministic function of its seed.  An action either
returns an :class:`AppliedFault` — carrying the revert closure that
undoes it — or ``None`` when it is not currently applicable (no
eligible target); the campaign records the skip and moves on, keeping
the draw sequence stable either way.

Faults compose: a host may be crashed while a WAN link flaps and the
wire corrupts payloads.  Actions therefore guard against
double-application on the same target (a host must not be slowed
twice, a reporter not skewed twice) because reverts restore absolute
values, not deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos.scenario import N_CLUSTERS
from repro.sim.faults import WireFaultProfile


@dataclass
class AppliedFault:
    """A live fault plus how to undo it."""

    kind: str
    target: str
    applied_at: float
    until: float                      # campaign reverts at/after this
    revert: Callable[[], None]
    detail: dict = field(default_factory=dict)


def _eligible_hosts(world, exclude_dead: bool = True) -> list:
    out = []
    for host in world.topology.host_ids():
        if host in world.protected:
            continue
        if exclude_dead and not world.topology.host(host).alive:
            continue
        out.append(host)
    return out


def _dead_count(world) -> int:
    return sum(1 for h in world.topology.host_ids()
               if not world.topology.host(h).alive)


def act_crash_host(world, rng, state) -> Optional[tuple]:
    """Crash one unprotected host; revert restarts it."""
    if _dead_count(world) >= state.max_dead:
        return None
    candidates = _eligible_hosts(world)
    if not candidates:
        return None
    host = candidates[int(rng.integers(0, len(candidates)))]
    world.injector.crash_host(host)

    def revert(h=host):
        world.injector.restart_host(h)
    return host, revert, {}


def act_partition_cluster(world, rng, state) -> Optional[tuple]:
    """Cut a whole non-coordinator cluster off the WAN; revert heals."""
    index = int(rng.integers(1, N_CLUSTERS))
    cluster = world.cluster_hosts(index)
    if any(h in state.partitioned for h in cluster):
        return None
    rest = [h for h in world.topology.host_ids() if h not in cluster]
    cuts = world.injector.partition(cluster, rest)
    state.partitioned.update(cluster)

    def revert(cuts=cuts, cluster=tuple(cluster)):
        world.injector.heal_partition(cuts)
        state.partitioned.difference_update(cluster)
    return f"c{index}", revert, {"hosts": len(cluster),
                                 "cuts": len(cuts)}


def act_wan_flap(world, rng, state) -> Optional[tuple]:
    """Take one WAN backbone link down; revert brings it back."""
    up = [link for link in world.wan_links
          if link.up and link.key not in state.cut_links]
    if not up:
        return None
    link = up[int(rng.integers(0, len(up)))]
    world.injector.cut_link(link.a, link.b)
    state.cut_links.add(link.key)

    def revert(link=link):
        world.injector.heal_link(link.a, link.b)
        state.cut_links.discard(link.key)
    return f"{link.a}~{link.b}", revert, {}


def act_wire_storm(world, rng, state) -> Optional[tuple]:
    """Corrupt the wire network-wide for a while; revert clears it."""
    if world.wire.default is not None:
        return None
    profile = WireFaultProfile(
        corrupt=float(rng.uniform(0.01, 0.05)),
        truncate=float(rng.uniform(0.0, 0.02)),
        duplicate=float(rng.uniform(0.0, 0.03)),
        reorder=float(rng.uniform(0.0, 0.05)))
    world.wire.set_default(profile)

    def revert():
        world.wire.set_default(None)
    return "network", revert, {
        "corrupt": round(profile.corrupt, 4),
        "truncate": round(profile.truncate, 4),
        "duplicate": round(profile.duplicate, 4),
        "reorder": round(profile.reorder, 4)}


def act_slow_host(world, rng, state) -> Optional[tuple]:
    """Degrade one host's CPU by 4-20x; revert restores the profile."""
    candidates = [h for h in _eligible_hosts(world)
                  if h not in state.slowed]
    if not candidates:
        return None
    host_id = candidates[int(rng.integers(0, len(candidates)))]
    host = world.topology.host(host_id)
    original = host.profile
    factor = float(rng.uniform(0.05, 0.25))
    host.profile = original.scaled(factor)
    state.slowed.add(host_id)

    def revert(host=host, original=original, host_id=host_id):
        host.profile = original
        state.slowed.discard(host_id)
    return host_id, revert, {"cpu_factor": round(factor, 3)}


def act_clock_skew(world, rng, state) -> Optional[tuple]:
    """Skew one reporter's clock so its records stamp wrong epochs."""
    candidates = [h for h in _eligible_hosts(world)
                  if h not in state.skewed]
    if not candidates:
        return None
    host = candidates[int(rng.integers(0, len(candidates)))]
    reporter = world.federation.reporters[host]
    # Positive skew poisons TTLs (records from the future); negative
    # skew ages a live host's records early.  Both must be survivable.
    magnitude = float(rng.uniform(5.0, 60.0))
    skew = magnitude if rng.random() < 0.7 else -min(magnitude, 10.0)
    reporter.clock_skew = skew
    state.skewed.add(host)

    def revert(reporter=reporter, host=host):
        reporter.clock_skew = 0.0
        state.skewed.discard(host)
    return host, revert, {"skew": round(skew, 3)}


def act_isolate_owner(world, rng, state) -> Optional[tuple]:
    """Partition one shard owner away from everyone; revert heals."""
    owners = [h for h in world.federation.agents
              if h not in world.protected
              and h not in state.partitioned
              and world.topology.host(h).alive]
    if not owners:
        return None
    owner = owners[int(rng.integers(0, len(owners)))]
    rest = [h for h in world.topology.host_ids() if h != owner]
    cuts = world.injector.partition([owner], rest)
    state.partitioned.add(owner)

    def revert(cuts=cuts, owner=owner):
        world.injector.heal_partition(cuts)
        state.partitioned.discard(owner)
    return owner, revert, {"cuts": len(cuts)}


#: kind -> implementation; weights live in the campaign config.
ACTIONS = {
    "crash_host": act_crash_host,
    "partition_cluster": act_partition_cluster,
    "wan_flap": act_wan_flap,
    "wire_storm": act_wire_storm,
    "slow_host": act_slow_host,
    "clock_skew": act_clock_skew,
    "isolate_owner": act_isolate_owner,
}

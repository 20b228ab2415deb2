"""C19 — seeded chaos campaigns with invariant monitors.

The robustness experiment: drive the full standard system (clustered
WAN topology, federated registry, supervised assembly, fenced replica
group, retrying clients) through seeded fault campaigns and demand
that every system invariant holds at quiescence — resolvability of
running providers through both the ring and the flood tier, single
fenced primary, no orphan incarnations, gossip membership converged
to ground truth, no wedged breaker/budget/reply, and no control loop
dead of an unhandled error.

Five campaign *profiles* weight the fault vocabulary differently, so
the suite leans on different subsystems:

- **crash-heavy** — host churn; exercises the supervisor replan path
  and replica promotion.
- **partition-heavy** — cluster cuts and WAN flaps; exercises gossip
  re-convergence and the resolver's dead-owner fallbacks.
- **corruption-heavy** — wire fault storms; exercises decode
  defensiveness (checkpoint corruption, phantom host ids).
- **timing** — clock skew and slow hosts; exercises epoch clamping
  and deadline sweeping.
- **mixed** — the default weights, everything at once.

Reported per profile: actions applied, invariant checks run,
violations (must be zero), client success/error counts, and the
recovery counters the campaign provoked.  Reports are byte-
reproducible from the seed; the selftest replays one and compares
digests.

The table and ``BENCH_chaos.json`` are recorded at ``FULL`` scale (45 s
campaigns); ``experiment()`` runs it and returns the table that
``tests/golden/test_experiments.py`` checks against EXPERIMENTS.md.
Run ``python benchmarks/bench_chaos.py --selftest`` for the
assertion-only gate wired into ``make check`` (``SHORT``: 15 s
campaigns, same invariants); ``make chaos`` runs longer campaigns via
the CLI.
"""

from _harness import Table, report, stash
from repro.chaos import CampaignConfig, run_campaign

# One profile = (name, seed, weights).  Seeds are fixed so the whole
# suite is reproducible; each profile also stresses a distinct mix.
PROFILES = [
    ("crash-heavy", 1101, (
        ("crash_host", 5.0), ("partition_cluster", 1.0),
        ("slow_host", 1.0))),
    ("partition-heavy", 1102, (
        ("partition_cluster", 3.0), ("wan_flap", 3.0),
        ("isolate_owner", 2.0), ("crash_host", 1.0))),
    ("corruption-heavy", 1103, (
        ("wire_storm", 4.0), ("crash_host", 1.0),
        ("wan_flap", 1.0))),
    ("timing", 1104, (
        ("clock_skew", 3.0), ("slow_host", 3.0),
        ("crash_host", 1.0))),
    ("mixed", 1105, CampaignConfig().weights),
]

#: the recorded scale (C19's table, ``BENCH_chaos.json``) and the
#: selftest's: a 15 s campaign is too short for a change of wire bytes
#: or of detection timing to reach its report.
FULL = dict(horizon=45.0, mean_gap=3.0, mean_dwell=6.0, drain=6.0)
SHORT = dict(horizon=15.0, mean_gap=2.0, mean_dwell=4.0, drain=6.0)


def _run_profiles(scale: dict) -> list[dict]:
    rows = []
    for name, seed, weights in PROFILES:
        config = CampaignConfig(weights=tuple(weights), **scale)
        rep = run_campaign(seed, config=config)
        rows.append({
            "profile": name, "seed": seed, "report": rep,
            "actions": sum(1 for a in rep.actions
                           if not a.kind.startswith("heal.")
                           and a.target != "-"),
            "checks": len(rep.checks),
            "violations": len(rep.violations),
            "client_ok": rep.metrics.get("client.ok", 0),
            "client_errors": rep.metrics.get("client.errors", 0),
            "recoveries": rep.metrics.get("supervisor.recoveries", 0.0),
            "fenced": rep.metrics.get("supervisor.repair.fenced", 0.0),
            "flood": rep.metrics.get(
                "federation.lookup.flood_fallback", 0.0),
        })
    return rows


def _check(rows: list[dict]) -> None:
    assert len(rows) >= 5, "need at least five campaign profiles"
    assert len({r["seed"] for r in rows}) == len(rows), \
        "profile seeds must be distinct"
    for row in rows:
        rep = row["report"]
        assert rep.ok, (f"profile {row['profile']} violated "
                        f"invariants:\n{rep.render_text()}")
        assert row["actions"] >= 1, \
            f"profile {row['profile']} applied no faults"
        quiescent = [c for c in rep.checks if c.phase == "quiescence"]
        assert quiescent and all(c.ok for c in quiescent)
    assert sum(r["client_ok"] for r in rows) > 0, \
        "client traffic never succeeded"


def _check_reproducible(rows: list[dict], scale: dict) -> None:
    """A report is its own reproducer: same seed, same bytes."""
    name, seed, weights = PROFILES[0]
    config = CampaignConfig(weights=tuple(weights), **scale)
    again = run_campaign(seed, config=config)
    saved = rows[0]["report"]
    assert again.to_json() == saved.to_json(), \
        f"replay of profile {name} (seed {seed}) diverged"


def _table(rows: list[dict]) -> Table:
    return Table(
        "C19: chaos campaigns (invariants at quiescence)",
        ["profile", "seed", "actions", "checks", "violations",
         "client ok", "client err", "recoveries", "fenced", "flood"],
        [[r["profile"], str(r["seed"]), str(r["actions"]),
          str(r["checks"]), str(r["violations"]), f"{r['client_ok']:.0f}",
          f"{r['client_errors']:.0f}", f"{r['recoveries']:.0f}",
          f"{r['fenced']:.0f}", f"{r['flood']:.0f}"] for r in rows],
        note="every campaign must end with zero violations; reports "
             "replay byte-for-byte from the seed")


def experiment():
    """Run the five profiles at ``FULL`` scale, assert every campaign
    ends clean, return C19's table."""
    rows = _run_profiles(FULL)
    _check(rows)
    return [_table(rows)]


def test_chaos_campaigns(benchmark, capsys):
    rows_box = {}

    def run():
        rows_box["rows"] = _run_profiles(FULL)

    benchmark.pedantic(run, rounds=1, iterations=1)
    rows = rows_box["rows"]
    _check(rows)
    report(capsys, *_table(rows))
    stash(benchmark,
          profiles=len(rows),
          actions=sum(r["actions"] for r in rows),
          checks=sum(r["checks"] for r in rows),
          violations=sum(r["violations"] for r in rows),
          client_ok=sum(r["client_ok"] for r in rows),
          client_errors=sum(r["client_errors"] for r in rows),
          recoveries=sum(r["recoveries"] for r in rows),
          digests=[r["report"].digest() for r in rows])


def selftest() -> int:
    rows = _run_profiles(SHORT)
    _check(rows)
    _check_reproducible(rows, SHORT)
    actions = sum(r["actions"] for r in rows)
    checks = sum(r["checks"] for r in rows)
    print(f"bench_chaos selftest ok: {len(rows)} campaigns, "
          f"{actions} faults injected, {checks} invariant checks, "
          f"0 violations, replay byte-identical")
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        description="seeded chaos campaigns with invariant monitors")
    parser.add_argument("--selftest", action="store_true",
                        help="run the assertion-only gate (no tables)")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(selftest())
    parser.error("run via pytest for the full report, or pass --selftest")

"""Alternating parent/change pairs of one spine workload.

    python3 benchmarks/ab_pairs.py --workload registry_churn
        [--pairs 10] [--seed 11] [--base HEAD]

The protocol of the choosing-metrics guide, section 8, which PRs 12 and
13 ran by hand: export the *base* commit (the parent; default ``HEAD``,
i.e. the working tree's uncommitted change is measured against what it
was built on) into a temporary directory, run the spine's contract form
(``run.py --workload W --seed N --seconds 8 --trace 0``: the run length
is the benchmark's own ``RUN_SECONDS``, not an option) alternately on
that tree and on the working tree — the side that goes first flips every
pair — and print

- every run made, pair by pair;
- for each **host** end-to-end metric: each side's median and
  quartiles, the pairs the change won (ties count for neither side),
  and whether the guide's rule for claiming a gain holds: change ahead
  in at least nine tenths of the pairs *and* the medians further apart
  than the distance between the parent's own quartiles;
- the **sim** end-to-end metrics that differ between the sides (a sim
  number is exact for a seed, so one that moves is a behaviour change,
  not noise), and any that failed to repeat within one side;
- operations attempted and failed on each side.

``peak_rss_mb`` moves by up to ~0.5 MB with nothing but the directory a
tree runs from (two copies of identical code, measured on ``rpc_mix``),
so a smaller gap than that says nothing about the change.

The base tree is a ``git archive`` export, not a ``git worktree``: it
leaves nothing behind in ``.git`` and is removed on exit.  Nothing under
``benchmarks/spine/`` is touched; the metric table (names, host/sim,
direction) is read from ``spine/metrics.py`` of the working tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

from spine.metrics import ALL, END_TO_END, HOST, RUN_SECONDS  # noqa: E402

PARENT, CHANGE = "parent", "change"


def export_base(rev: str, dest: Path) -> None:
    """Unpack commit *rev* of this repository into *dest*."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        raise SystemExit(f"ab_pairs: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One contract-form run of *tree*'s own spine; its result object."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "spine" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=tree, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: run in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def host_row(metric, parent: list, change: list) -> str:
    sign = 1.0 if metric.better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    gain = won >= 0.9 * len(parent) and gap > (p_q3 - p_q1)
    verdict = ("gain" if gain else "no gain shown" if gap >= 0
               else f"worse by {-gap / p_med:.1%} of parent median "
                    f"(bound {metric.bound:.0%})")
    return (f"  {metric.name:<12} [{metric.unit}, {metric.better} is better]\n"
            f"    parent  median {p_med:10.4g}   quartiles "
            f"{p_q1:.4g} .. {p_q3:.4g}\n"
            f"    change  median {c_med:10.4g}   quartiles "
            f"{c_q1:.4g} .. {c_q3:.4g}\n"
            f"    change won {won}/{len(parent)} pairs, lost {lost}; "
            f"median gap {gap / p_med:+.1%} of parent vs parent IQR "
            f"{(p_q3 - p_q1) / p_med:.1%}: {verdict}")


def sim_rows(metric, parent: list, change: list) -> list:
    rows = []
    for side, values in ((PARENT, parent), (CHANGE, change)):
        if len(set(values)) > 1:
            rows.append(f"  {metric.name}: NOT REPEATABLE on {side}: "
                        f"{sorted(set(values))}")
    if parent[0] != change[0]:
        delta = ((change[0] - parent[0]) / parent[0]
                 if parent[0] else float("inf"))
        rows.append(f"  {metric.name}: {parent[0]!r} -> {change[0]!r} "
                    f"{metric.unit} ({delta:+.3%}; {metric.better} is "
                    f"better, bound {metric.bound:.1%})")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--base", default="HEAD",
                        help="commit to measure the working tree against")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base = Path(tempfile.mkdtemp(prefix="ab_pairs."))
    try:
        export_base(args.base, base)
        trees = {PARENT: base, CHANGE: ROOT}
        runs = {PARENT: [], CHANGE: []}
        print(f"{args.workload} seed {args.seed}, {RUN_SECONDS} s, "
              f"{args.pairs} pairs: {args.base} (parent) vs working tree "
              f"(change)")
        for pair in range(args.pairs):
            order = (PARENT, CHANGE) if pair % 2 == 0 else (CHANGE, PARENT)
            for side in order:
                runs[side].append(run_once(trees[side], args.workload,
                                           args.seed))
            shown = "  ".join(
                f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.1f}"
                for side in order)
            print(f"  pair {pair + 1:2d}  ops_per_s  {shown}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    def column(side: str, name: str) -> list:
        return [run["metrics"][name]["value"] for run in runs[side]]

    print("host metrics (noisy: judged over the pairs)")
    for metric in END_TO_END:
        if metric.kind == HOST:
            print(host_row(metric, column(PARENT, metric.name),
                           column(CHANGE, metric.name)))
    print("sim metrics that differ (exact for a seed)")
    differing = [row for metric in END_TO_END if metric.kind != HOST
                 for row in sim_rows(metric, column(PARENT, metric.name),
                                     column(CHANGE, metric.name))]
    print("\n".join(differing) if differing else "  none")
    for side in (PARENT, CHANGE):
        attempted = sum(run["attempted"] for run in runs[side])
        failed = sum(run["failed"] for run in runs[side])
        wrong = sum(1 for run in runs[side] if not run["correct"])
        print(f"{side}: {failed} of {attempted} operations failed, "
              f"{wrong} of {len(runs[side])} runs failed verification")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

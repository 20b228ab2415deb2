"""``run.py --compare A.json B.json``: B against A, metric by metric.

One row per workload x end-to-end metric with both values, the fixed
bound and a verdict:

- ``same``        the two values are equal;
- ``better``      B is better than A;
- ``within``      B is worse than A, by no more than the bound;
- ``worse``       B is worse than A by more than the bound;
- ``unresolved``  the spread recorded inside the runs (chunk quartiles
  for ``ops_per_s``, set-up samples for ``setup_s``) is wider than the
  bound, so one run a side cannot tell — the guide asks for ten
  alternating pairs before such a metric is called either way.

Then one exact-equality row per workload for the simulated numbers
(end-to-end sim metrics and every per-layer count): a change meant only
to speed the code up must leave all of them identical.

Exit status: 0, or 1 if any row is ``worse``, or 2 if only simulated
numbers differ.
"""

from __future__ import annotations

import json
import statistics

from spine import metrics


def _spread(entry: dict, name: str):
    """Relative spread recorded inside one run, where there is one."""
    if name == "ops_per_s":
        return entry["chunk_iqr_ratio"]
    if name == "setup_s" and len(entry["setup_samples_s"]) >= 4:
        q1, q2, q3 = statistics.quantiles(entry["setup_samples_s"], n=4)
        return (q3 - q1) / q2
    return None


def verdict(metric, a: float, b: float, spread) -> str:
    if a == b:
        return "same"
    worse_by = (b - a) / a if metric.better == "lower" else (a - b) / a
    if spread is not None and spread > metric.bound:
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    return "better" if worse_by < 0 else "within"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    worse = 0
    print(f"{'workload':15s} {'metric':20s} {'A':>14s} {'B':>14s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in metrics.WORKLOADS:
        wa = a["workloads"][workload.name]
        wb = b["workloads"][workload.name]
        for m in metrics.END_TO_END:
            va, vb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            spreads = [s for s in (_spread(wa, m.name), _spread(wb, m.name))
                       if s is not None]
            spread = max(spreads) if spreads else None
            word = verdict(m, va, vb, spread)
            worse += word == "worse"
            change = (vb - va) / va if va else 0.0
            shown = f"{spread:7.3f}" if spread is not None else "      -"
            print(f"{workload.name:15s} {m.name:20s} {va:14.5f} {vb:14.5f} "
                  f"{change:+8.2%} {m.bound:6.3f} {shown}  {word}")

    sim_names = [m.name for m in metrics.PER_LAYER if m.kind == metrics.SIM]
    differing = 0
    for workload in metrics.WORKLOADS:
        wa = a["workloads"][workload.name]
        wb = b["workloads"][workload.name]
        diffs = [n for n in metrics.SIM_END_TO_END
                 if wa["end_to_end"][n] != wb["end_to_end"][n]]
        diffs += [n for n in sim_names
                  if wa["per_layer"][n] != wb["per_layer"][n]]
        total = len(metrics.SIM_END_TO_END) + len(sim_names)
        differing += len(diffs)
        print(f"{workload.name:15s} sim numbers: {total - len(diffs)} of "
              f"{total} exactly equal"
              + (f"; differ: {', '.join(diffs)}" if diffs else ""))
    if worse:
        return 1
    return 2 if differing else 0

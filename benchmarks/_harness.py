"""Shared helpers for the benchmark suite.

A bench prints its experiment tables -- simulated messages, bytes,
sim-seconds, placement quality: the protocol-level results behind the
paper's claims -- with :func:`report`.  A bench with a pytest-benchmark
arm (the wall time of *this implementation*) attaches its figures to
the record with :func:`stash`, so ``--benchmark-json`` keeps them.

EXPERIMENTS.md records the tables.  A bench whose tables
``tests/golden/test_experiments.py`` checks against it has one
``experiment()``: it runs the experiment once, asserts the claim, and
returns its tables (:class:`Table`).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class Table(NamedTuple):
    """An experiment table with its cells formatted as printed:
    ``report(capsys, *table)`` prints it."""

    title: str
    headers: Sequence[str]
    rows: Sequence[Sequence[str]]
    note: str = ""


def report(capsys, title: str, headers: Sequence[str],
           rows: Sequence[Sequence], note: str = "") -> None:
    """Print an experiment table straight to the terminal."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    with capsys.disabled():
        print(f"\n  == {title} ==")
        print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        print("  " + "  ".join("-" * w for w in widths))
        for row in str_rows:
            print("  " + "  ".join(c.ljust(w)
                                   for c, w in zip(row, widths)))
        if note:
            print(f"  ({note})")
        print()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def stash(benchmark, **info) -> None:
    """Attach experiment metrics to the benchmark record."""
    for key, value in info.items():
        benchmark.extra_info[key] = value

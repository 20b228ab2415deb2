"""EXPERIMENTS.md's claim tables equal a fresh run, cell for cell.

Each table checked here sits in EXPERIMENTS.md right after a marker
line, ``<!-- table: E2 -->``.  Its bench's ``experiment()`` runs the
experiment once, asserts the bench's claim on that run, and returns the
tables it prints; every cell, the header row included, must equal the
document's with ``**`` (bold) stripped.  A table that differs fails with
the experiment, the cell, and the fresh table as markdown, ready to
paste over the old one.

The check sees what a cell shows, no finer: E2's ``wire B/stroke`` is
printed to the byte, so one padded reply in twenty strokes (0.05 B per
stroke) does not show, while a byte on every reply does.
"""

import functools
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_availability  # noqa: E402
import bench_cohesion  # noqa: E402
import bench_consistency  # noqa: E402
import bench_deployment  # noqa: E402
import bench_fig1_node  # noqa: E402
import bench_fig2_cscw  # noqa: E402
import bench_ft  # noqa: E402
import bench_grid  # noqa: E402
import bench_hierarchy  # noqa: E402
import bench_migration  # noqa: E402
import bench_prediction  # noqa: E402

DOC = (ROOT / "EXPERIMENTS.md").read_text()

#: the first table of each bench -> the bench.
BENCHES = {
    "E1": bench_fig1_node,
    "E2": bench_fig2_cscw,
    "C2": bench_deployment,
    "C3": bench_hierarchy,
    "C4": bench_consistency,
    "C5": bench_ft,
    "C6": bench_migration,
    "C9a": bench_grid,
    "C10": bench_prediction,
    "C13a": bench_cohesion,
    "C14": bench_availability,
}
TABLES = ("E1", "E2", "C2", "C3", "C3b", "C4", "C4b", "C5", "C6", "C6b",
          "C9a", "C9b", "C10", "C13a", "C13b", "C14")

MARKER = re.compile(r"^<!-- table: (\S+) -->$", re.M)


def doc_tables(text: str) -> dict[str, list[list[str]]]:
    """Each marked table of *text*: its header row, then its body rows,
    each a list of cells with ``**`` stripped."""
    tables = {}
    for match in MARKER.finditer(text):
        lines = text[match.end():].lstrip("\n").splitlines()
        rows = []
        for line in lines:
            if not line.startswith("|"):
                break
            cells = [cell.strip().replace("**", "")
                     for cell in line.strip().strip("|").split("|")]
            if not all(re.fullmatch(r":?-+:?", cell) for cell in cells):
                rows.append(cells)
        tables[match.group(1)] = rows
    return tables


def name_of(table) -> str:
    """``C6b`` of ``C6b: cost of one migration over a WAN``."""
    return table.title.split(":", 1)[0]


def markdown(table) -> str:
    lines = [table.headers, ["---"] * len(table.headers), *table.rows]
    return "\n".join("| " + " | ".join(row) + " |" for row in lines)


def mismatches(table, documented: dict) -> list[str]:
    """One line per cell of *table* that differs from the document."""
    name = name_of(table)
    doc = documented.get(name)
    if doc is None:
        return [f"{name}: no `<!-- table: {name} -->` table in "
                "EXPERIMENTS.md"]
    fresh = [list(table.headers), *map(list, table.rows)]
    if [len(row) for row in doc] != [len(row) for row in fresh]:
        return [f"{name}: EXPERIMENTS.md has rows of "
                f"{[len(row) for row in doc]} cells, the run "
                f"{[len(row) for row in fresh]}"]
    out = []
    for r, (doc_row, row) in enumerate(zip(doc, fresh)):
        for header, want, got in zip(table.headers, doc_row, row):
            if want != got:
                where = "header" if r == 0 else f"row {r} {row[0]!r}"
                out.append(f"{name} {where}, {header!r}: "
                           f"EXPERIMENTS.md {want!r}, run {got!r}")
    return out


@functools.cache
def run(name: str):
    """The tables of the bench's ``experiment()``, run once per session."""
    return BENCHES[name].experiment()


def test_every_marked_table_is_checked():
    assert sorted(doc_tables(DOC)) == sorted(TABLES)


@pytest.mark.parametrize("name", BENCHES)
def test_table_matches_experiments_md(name):
    tables = run(name)
    documented = doc_tables(DOC)
    problems = [line for table in tables
                for line in mismatches(table, documented)]
    assert not problems, "\n".join(
        problems + ["", "fresh tables:"]
        + [f"<!-- table: {name_of(t)} -->\n{markdown(t)}\n"
           for t in tables])


def test_one_changed_digit_is_named():
    (table,) = run("E2")
    label, cell = table.rows[1][0], table.rows[1][3]     # "608 B"
    changed = str((int(cell[0]) + 1) % 10) + cell[1:]
    at = DOC.index(f"| {cell} |", DOC.index("<!-- table: E2 -->")) + 2
    mutant = DOC[:at] + changed + DOC[at + len(cell):]
    assert mismatches(table, doc_tables(mutant)) == [
        f"E2 row 2 {label!r}, 'wire B/stroke': "
        f"EXPERIMENTS.md {changed!r}, run {cell!r}"]


def test_a_byte_on_every_reply_moves_e2(monkeypatch):
    import repro.orb.giop as giop

    encode = giop.encode_reply
    monkeypatch.setattr(giop, "encode_reply",
                        lambda *args: encode(*args) + b"\0")
    (table,) = bench_fig2_cscw.experiment()
    moved = mismatches(table, doc_tables(DOC))
    assert any("'wire B/stroke'" in line for line in moved), moved

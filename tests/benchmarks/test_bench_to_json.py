"""``bench_to_json.py``: one suite table, one distill.

Each checked-in ``BENCH_<suite>.json`` keeps the per-benchmark runs it
was distilled from (``raw``).  Fed back through ``distill`` as a canned
pytest-benchmark report, they must give a record whose ``current``
block has the file's keys and values.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench_to_json  # noqa: E402


def canned_report(raw: dict) -> dict:
    """A pytest-benchmark JSON report holding *raw*'s runs."""
    benchmarks = []
    for name, run in raw.items():
        extra = {k: v for k, v in run.items()
                 if k not in ("mean_s", "stddev_s", "rounds")}
        benchmarks.append({
            "name": name,
            "stats": {"mean": run["mean_s"], "stddev": run["stddev_s"],
                      "rounds": run["rounds"]},
            "extra_info": extra})
    return {"machine_info": {"cpu": {"brand_raw": "canned"}},
            "benchmarks": benchmarks}


@pytest.mark.parametrize("name", sorted(bench_to_json.SUITES))
def test_distill_reproduces_the_checked_in_current_block(name):
    suite = bench_to_json.SUITES[name]
    checked_in = json.loads(suite.out.read_text())
    record = bench_to_json.distill(suite, canned_report(checked_in["raw"]),
                                   history=[])
    assert list(record["current"]) == list(checked_in["current"])
    assert record["current"] == checked_in["current"]
    assert record["bench"] == checked_in["bench"]
    assert set(record) == set(checked_in)
    # the printed summary formats from the record alone
    assert suite.summary.format_map({**record, **record["current"]})

"""The sim-exact ledger (``tests/golden/sim_ledger.json``) still holds.

``make check`` compares all of it (``benchmarks/sim_ledger.py
--check``); here, ``cscw_session`` at seed 11, the chaos report
digests of seeds 3 and 139, and both runs of the instrument block (every
span, histogram, gauge and counter).  A change that moves a simulated number
regenerates the ledger with ``make golden`` in the same commit.

The check must see one byte: a run with one reply padded by a trailing
byte (the decoder reads a reply body by its length word, so the call
still succeeds) moves the ledger.
"""

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import sim_ledger  # noqa: E402

GOLDEN = sim_ledger.load()

#: the reply to pad: ``cscw_session`` at seed 11 puts 681 reply frames
#: on the wire, fewer than 100 of them before the measured window.
PAD_AT = 340

PAD_ONE_REPLY = f"""
import repro.orb.giop as giop

_encode = giop.encode_reply
_sent = [0]


def encode_reply(request_id, status, body):
    _sent[0] += 1
    wire = _encode(request_id, status, body)
    return wire + b"\\0" if _sent[0] == {PAD_AT} else wire


giop.encode_reply = encode_reply
"""


def test_cscw_session_matches_the_ledger():
    fresh = sim_ledger.workload_record("cscw_session", 11)
    golden = GOLDEN["workloads"]["cscw_session"]["11"]
    assert sim_ledger.diff(golden, fresh) == []


@pytest.mark.parametrize("seed", [3, 139])
def test_chaos_digest_matches_the_ledger(seed):
    assert sim_ledger.chaos_digest(seed) == \
        GOLDEN["chaos_digests"][str(seed)]


def test_instrument_records_match_the_ledger():
    assert sim_ledger.diff(GOLDEN["instrument"],
                           sim_ledger.instrument_block()) == []


def test_one_padded_reply_moves_the_ledger(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(PAD_ONE_REPLY)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(ROOT / "src")]))
    padded = sim_ledger.workload_record("cscw_session", 11, env=env)
    golden = GOLDEN["workloads"]["cscw_session"]["11"]
    moved = sim_ledger.diff(golden, padded)
    assert any(line.startswith("wire_bytes_per_op:") for line in moved)
    assert padded["counters"]["net.bytes"] == \
        golden["counters"]["net.bytes"] + 1

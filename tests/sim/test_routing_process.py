"""Routing laws that only a fresh interpreter can check.

- The tie-break between equal-latency paths is a stated rule (link
  insertion order, strict relaxation, first-pushed heap entry first),
  so the whole route table of the chord-backbone world is the same in
  two processes with different ``PYTHONHASHSEED`` values.
- Routing is plain Python: importing the simulator, the ORB and the
  registry must not pull ``networkx`` into the process (150 ms and
  ~13 MB per run when it did).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_ROUTE_TABLE = """
import hashlib
from repro.sim.topology import clustered

topo = clustered(32, 8, backbone="chords")
digest = hashlib.sha256()
for faults in range(2):
    ids = topo.host_ids()
    for src in ids:
        for dst in ids:
            digest.update(repr((src, dst, topo.route(src, dst))).encode())
    topo.set_host_state("c4h0", alive=False)
    topo.set_link_state("c0h0", "c16h0", up=False)
print(digest.hexdigest())
"""

_IMPORTS = """
import sys
import repro.sim, repro.orb, repro.registry
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""


def _python(code: str, hashseed: int = 0) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip()


def test_route_table_identical_across_hash_seeds():
    first = _python(_ROUTE_TABLE, hashseed=1)
    assert len(first) == 64
    assert first == _python(_ROUTE_TABLE, hashseed=2), (
        "routes differ between PYTHONHASHSEED=1 and =2: the tie-break "
        "observes set/dict hash order")


def test_importing_the_stack_leaves_networkx_out():
    assert _python(_IMPORTS) == "[]"

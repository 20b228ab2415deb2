"""The tie law, chaos half: campaign digests ignore same-instant NORMAL order.

Events due at one instant run in scheduling order, and for timeouts
(message arrivals, CPU costs, sleeps) that order is the simulator's
choice, not the protocol's.  Under ``tests/oracles/tiekernel.py``, which
pops same-instant NORMAL events in a seeded permuted order, chaos
campaigns 3 and 139 must still give the ledger's report digests (in
seed 3 alone, 611 NORMAL pops share their instant with the NORMAL pop
before them).

URGENT order is a promise, not a choice (``repro.sim.kernel``'s
docstring): permuting it too must break something, which shows the
permutation reaches the kernel at all.
"""

import sys
from pathlib import Path

import pytest

from repro.sim.kernel import Environment, Interrupt
from tests.oracles.tiekernel import permuted_ties

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import sim_ledger  # noqa: E402

GOLDEN = sim_ledger.load()


def test_normal_ties_are_permuted_and_urgent_ones_kept():
    env = Environment()
    order = []
    with permuted_ties(1):
        for k in range(8):
            env.timeout(0.0).callbacks.append(
                lambda _e, k=k: order.append(("timeout", k)))
        for k in range(8):
            env.event().succeed().callbacks.append(
                lambda _e, k=k: order.append(("event", k)))
        env.run()
    assert order[:8] == [("event", k) for k in range(8)]
    assert sorted(order[8:]) == [("timeout", k) for k in range(8)]
    assert order[8:] != sorted(order[8:])


@pytest.mark.parametrize("tie_seed", [1, 2])
@pytest.mark.parametrize("chaos_seed", [3, 139])
def test_chaos_digest_ignores_normal_tie_order(chaos_seed, tie_seed):
    with permuted_ties(tie_seed):
        digest = sim_ledger.chaos_digest(chaos_seed)
    assert digest == GOLDEN["chaos_digests"][str(chaos_seed)]


def test_permuted_urgent_ties_break_the_kernel_contract():
    # Seed 163 crashes a host in the instant one of its loops starts;
    # the interrupt must land after the loop's first step.
    with permuted_ties(1, urgent=True), \
            pytest.raises(Interrupt, match="host crashed"):
        sim_ledger.chaos_digest(163)

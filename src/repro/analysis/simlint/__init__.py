"""Source-level determinism & control-loop safety analyzer (simlint).

The PR-5 verifier checks deployment *artifacts* (IDL, descriptors,
assemblies); simlint turns the same typed-findings machinery on the
codebase itself.  The lightweight-component reproduction promises
byte-for-byte replay from a seed, but that guarantee is only as strong
as the source discipline behind it: one stray ``random.random()`` or
wall-clock read desynchronizes every campaign, one decode error
escaping a supervisor loop kills self-healing, one unreverted chaos
fault poisons the next campaign, and one typo'd metric name silently
drops a benchmark series.

Five rule families, each with stable ``SIMxxx`` codes:

- **determinism** (SIM001-) — the stdlib ``random`` module, wall
  clocks, ``os.urandom``-style entropy, ad-hoc numpy ``Generator``
  construction, and unordered ``set`` iteration are forbidden outside
  the named-stream discipline of :mod:`repro.sim.rng`;
- **control-loop safety** (SIM010-) — supervisor/agent/reporter/worker
  loops must not let decode errors escape an iteration, must re-raise
  kernel control exceptions from broad handlers, and must shut down
  cleanly on :class:`~repro.sim.kernel.Interrupt`;
- **paired effects** (SIM020-) — chaos fault installers must return a
  revert closure; staged ring membership changes must be rebalanced
  (or cancelled) on every path out of the function;
- **name hygiene** (SIM030-) — every metric/span name emitted as a
  string literal must be declared in :mod:`repro.obs.names`;
- **observed liveness** (SIM040) — outside :mod:`repro.sim` and
  :mod:`repro.chaos`, no code reads another host's ``.alive`` off the
  simulator: liveness is what a node observes.

A finding is silenced only inline, on its own line
(``# simlint: disable=SIM003``).  The CLI front end is
``python -m repro.tools.simlint``.
"""

from __future__ import annotations

from repro.analysis.simlint.engine import (
    RULE_DOCS,
    SimlintConfig,
    SourceFile,
    lint_paths,
    lint_sources,
)

__all__ = [
    "RULE_DOCS",
    "SimlintConfig",
    "SourceFile",
    "lint_paths",
    "lint_sources",
]

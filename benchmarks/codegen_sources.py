"""Check that a codec change leaves the generated depth-0 source alone.

Two steps, the first run on the tree *before* the change:

    python benchmarks/codegen_sources.py record OUT -- python -m pytest -q
    python benchmarks/codegen_sources.py compare OUT

``record`` runs the command with a ``sitecustomize`` hook on
``PYTHONPATH`` (child processes inherit it) that keeps every TypeCode
``repro.orb.codegen.generate`` builds at root depth 0 together with the
encoder and decoder source it produced, one pickle per process in OUT.
Record several commands into one OUT (tier-1, ``sim_ledger.py``, a
chaos seed, the spine workloads).  ``compare``, run in the tree after
the change, regenerates each recorded TypeCode at depth 0 and prints
the count and every TypeCode whose source differs; it exits 1 on a
difference.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_HOOK = '''
import atexit, os, pickle
import repro.orb.codegen as _cg

def _ser(tc):
    if tc is None:
        return None
    members = tuple((m[0], _ser(m[1])) if len(m) == 2
                    else (m[0], m[1], _ser(m[2])) for m in tc.members)
    return (tc.kind.value, tc.name, tc.repo_id, members, tc.labels,
            _ser(tc.content_type), tc.length, _ser(tc.discriminator_type),
            tc.default_index)

_generate, _seen = _cg.generate, {}

def _recording(tc, *depth):
    pair = _generate(tc, *depth)
    if pair is not None and depth in ((), (0,)):
        try:
            key = pickle.dumps(_ser(tc))
        except RecursionError:
            return pair
        _seen.setdefault(key, (pair[0].__codegen_source__,
                               pair[1].__codegen_source__))
    return pair

_cg.generate = _recording
atexit.register(lambda: pickle.dump(_seen, open(os.path.join(
    os.environ["CODEGEN_SOURCES_OUT"], f"{os.getpid()}.pkl"), "wb")))
'''


def _deser(t):
    from repro.orb.typecodes import TCKind, TypeCode
    if t is None:
        return None
    kind, name, repo_id, members, labels, content, length, disc, dflt = t
    members = [(m[0], _deser(m[1])) if len(m) == 2
               else (m[0], m[1], _deser(m[2])) for m in members]
    return TypeCode(TCKind(kind), name=name, repo_id=repo_id,
                    members=members, labels=labels,
                    content_type=_deser(content), length=length,
                    discriminator_type=_deser(disc), default_index=dflt)


def record(out: Path, command: list) -> int:
    hook = out / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(_HOOK)
    env = dict(os.environ, CODEGEN_SOURCES_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(hook), "src", "benchmarks"]))
    return subprocess.call(command, env=env)


def compare(out: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.orb import codegen
    recorded = {}
    for path in sorted(out.glob("*.pkl")):
        with path.open("rb") as f:
            recorded.update(pickle.load(f))
    differ = []
    for key, sources in recorded.items():
        tc = _deser(pickle.loads(key))
        pair = codegen.generate(tc, 0)
        if (pair[0].__codegen_source__, pair[1].__codegen_source__) \
                != sources:
            differ.append(tc)
    print(f"{len(recorded)} TypeCodes recorded, "
          f"{len(recorded) - len(differ)} identical at depth 0, "
          f"{len(differ)} differ")
    for tc in differ:
        print(f"  DIFFERS {tc!r}")
    return 1 if differ else 0


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) >= 4 and argv[0] == "record" and argv[2] == "--":
        return record(Path(argv[1]).resolve(), argv[3:])
    if len(argv) == 2 and argv[0] == "compare":
        return compare(Path(argv[1]).resolve())
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())

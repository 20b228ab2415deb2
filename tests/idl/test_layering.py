"""The IDL compiler and the utilities sit below the static verifier.

``repro.analysis`` imports the verifier, which imports ``repro.idl``;
the compiler runs the IDL checker, which lives in ``repro.idl`` and
writes into ``repro.util.diagnostics``.  An import of ``repro.analysis``
from either package would close that loop.
"""

from pathlib import Path

import pytest

import repro.idl
import repro.util
from tests.orb.test_seams import runtime_imports

MODULES = sorted(
    path
    for package in (repro.idl, repro.util)
    for path in Path(package.__file__).resolve().parent.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_nothing_from_analysis(path):
    upward = {name for name in runtime_imports(path)
              if name == "repro.analysis"
              or name.startswith("repro.analysis.")}
    assert upward == set()

"""Static verification of CORBA-LC applications before deployment.

Three layers over one diagnostics engine
(:class:`~repro.util.diagnostics.Diagnostics`):

1. :mod:`repro.idl.check` — semantic checks on parsed IDL and the
   interface-inheritance graph / subtype oracle (``IDL0xx`` codes).
   The same checker is the IDL compiler's front end: compiling checks
   first and raises :class:`~repro.idl.codegen.IdlSemanticError` with
   the findings, so nothing the lint rejects can be compiled.
2. :mod:`repro.analysis.descriptors` — descriptor-vs-IDL and
   descriptor-vs-package-set cross-checks (``CMP0xx`` codes).
3. :mod:`repro.analysis.assembly` — whole-application wiring checks
   over assembly descriptors (``ASM0xx`` codes).

:mod:`repro.analysis.verifier` composes them over an
:class:`ApplicationModel`; :mod:`repro.analysis.gate` adapts that to
the run-time deployer; :mod:`repro.tools.lint` is the command-line
front end.  Schema-level XML violations surface as ``SCH001`` findings
via :mod:`repro.xmlmeta.schema`.
"""

from repro.analysis.assembly import check_assembly
from repro.analysis.descriptors import (
    KNOWN_FRAMEWORK_SERVICES,
    PackageInfo,
    PackageSet,
    check_component_type,
    check_package_set,
    check_software,
)
from repro.analysis.gate import AssemblyRejected, DeploymentGate
from repro.analysis.verifier import (
    ApplicationModel,
    model_from_packages,
    verify_model,
)
from repro.idl.check import (
    CheckedSpec,
    InterfaceGraph,
    InterfaceInfo,
    check_specification,
)
from repro.util.diagnostics import Diagnostics, Finding, Severity

__all__ = [
    "ApplicationModel",
    "AssemblyRejected",
    "CheckedSpec",
    "DeploymentGate",
    "Diagnostics",
    "Finding",
    "InterfaceGraph",
    "InterfaceInfo",
    "KNOWN_FRAMEWORK_SERVICES",
    "PackageInfo",
    "PackageSet",
    "Severity",
    "check_assembly",
    "check_component_type",
    "check_package_set",
    "check_software",
    "check_specification",
    "model_from_packages",
    "verify_model",
]

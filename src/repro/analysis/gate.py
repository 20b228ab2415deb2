"""The deployment gate: static verification before the planner runs.

Opt-in bridge between the static verifier and the run-time
:class:`~repro.deployment.application.Deployer`.  The gate builds an
:class:`ApplicationModel` from the packages the target nodes actually
hold (their bundled IDL plus the process-wide interface repository,
since compiled stubs may ship no IDL text), verifies the assembly, and
raises :class:`AssemblyRejected` — carrying every finding — before a
single instance is incarnated.

The deployer keeps no import on this module; it accepts any object with
the gate's ``check(assembly, nodes)`` signature, so the dependency
points analysis → deployment-free and the gate stays optional.
"""

from __future__ import annotations

from repro.analysis.findings import Diagnostics, Finding
from repro.analysis.verifier import model_from_packages, verify_model
from repro.util.errors import ValidationError
from repro.xmlmeta.descriptors import AssemblyDescriptor


class AssemblyRejected(ValidationError):
    """Static verification refused an assembly; findings attached."""

    def __init__(self, assembly_name: str, findings: list[Finding]) -> None:
        self.assembly_name = assembly_name
        self.findings = list(findings)
        errors = [f for f in self.findings if int(f.severity) >= 2]
        lines = "; ".join(f"{f.code} {f.message}" for f in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        super().__init__(
            f"assembly {assembly_name!r} rejected by static verification: "
            f"{lines}{more}")


class DeploymentGate:
    """Verifies assemblies against the packages live nodes hold.

    Interfaces are checked leniently: at run time, interfaces may exist
    only as compiled stubs in the interface repository, so an unresolved
    repo-id is not proof of error the way it is for the lint CLI, which
    sees all the IDL there is.
    """

    # -- package collection ---------------------------------------------------
    @staticmethod
    def packages_on(nodes) -> list:
        """Every distinct package installed across *nodes*' repositories."""
        out = []
        seen: set[tuple[str, str]] = set()
        for node in nodes.values():
            for cls in node.repository.classes():
                key = (cls.package.name, str(cls.package.version))
                if key not in seen:
                    seen.add(key)
                    out.append(cls.package)
        return out

    # -- verification ---------------------------------------------------------
    def verify(self, assembly: AssemblyDescriptor,
               nodes) -> Diagnostics:
        """All findings for *assembly* against *nodes*' package sets."""
        from repro.orb.dii import GLOBAL_IFR
        model = model_from_packages(self.packages_on(nodes),
                                    assembly=assembly, ifr=GLOBAL_IFR)
        return verify_model(model, strict_interfaces=False)

    def check(self, assembly: AssemblyDescriptor, nodes,
              metrics=None) -> Diagnostics:
        """Verify; raise :class:`AssemblyRejected` on any error finding.

        Warnings and infos pass — the gate blocks only on findings that
        would make the deployment wrong, not merely suspicious.  When
        *metrics* is given, rejections count on ``analysis.rejected``.
        """
        diag = self.verify(assembly, nodes)
        if diag.has_errors():
            if metrics is not None:
                metrics.counter("analysis.rejected").inc()
            raise AssemblyRejected(assembly.name, diag.sorted())
        return diag

"""Layer 2: cross-checks between XML descriptors and declared IDL.

Where layer 1 proves each IDL specification is internally consistent,
this layer proves the *descriptors* agree with the IDL and with each
other: interface ports must name declared interfaces, dependency
version ranges must be satisfiable against the packages actually
available, QoS figures must be sane, framework-service references must
name services the node model provides.

======== ==================================================================
code     meaning
======== ==================================================================
CMP001   port repo-id does not resolve to a declared interface
CMP002   dependency unsatisfiable against the package set
CMP003   dependency (or instance) version range is empty/inverted
CMP004   unknown framework service (warning)
CMP005   QoS figure out of range
CMP006   duplicate event-port name
======== ==================================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.analysis.findings import Diagnostics
from repro.analysis.idlcheck import InterfaceGraph
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version, VersionRange

#: Services a component may declare it needs from its hosting node
#: (the node model's well-known services plus container-level features).
KNOWN_FRAMEWORK_SERVICES = frozenset({
    "registry", "resources", "acceptor", "container",
    "migration", "events", "aggregation", "licensing",
})


@dataclass
class PackageInfo:
    """One (software, component-type) descriptor pair in the package set."""

    software: SoftwareDescriptor
    component: ComponentTypeDescriptor
    source: str = ""

    @property
    def name(self) -> str:
        return self.software.name

    @property
    def version(self) -> Version:
        return self.software.version


class PackageSet:
    """All packages an application could draw on, indexed by name.

    The dependency-satisfiability and assembly checks resolve component
    names and version ranges against this set — the static analogue of
    what the node repositories answer at deployment time.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, list[PackageInfo]] = {}

    def add(self, software: SoftwareDescriptor,
            component: ComponentTypeDescriptor,
            source: str = "") -> PackageInfo:
        info = PackageInfo(software=software, component=component,
                           source=source)
        self._by_name.setdefault(info.name, []).append(info)
        return info

    def add_package(self, package) -> PackageInfo:
        """Add a :class:`~repro.packaging.package.ComponentPackage`."""
        return self.add(package.software, package.component,
                        source=f"package {package.name}")

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_name.values())

    def __iter__(self) -> Iterable[PackageInfo]:
        for infos in self._by_name.values():
            yield from infos

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def versions_of(self, name: str) -> list[Version]:
        return sorted(i.version for i in self._by_name.get(name, []))

    def resolve(self, name: str,
                versions: Optional[VersionRange] = None
                ) -> Optional[PackageInfo]:
        """The newest package named *name* within *versions*, if any."""
        candidates = [
            info for info in self._by_name.get(name, [])
            if versions is None or versions.matches(info.version)
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda info: info.version)


def check_component_type(component: ComponentTypeDescriptor,
                         graph: InterfaceGraph,
                         diag: Diagnostics,
                         source: str = "",
                         strict_interfaces: bool = True) -> None:
    """Check one component-type descriptor against the interface graph."""
    where = source or f"componenttype {component.name}"

    for category, ports in (("provides", component.provides),
                            ("uses", component.uses)):
        for port in ports:
            if port.repo_id not in graph:
                message = (f"component {component.name!r}, {category} port "
                           f"{port.name!r}: repo-id {port.repo_id!r} does "
                           f"not name a declared interface")
                if strict_interfaces:
                    diag.error("CMP001", where, message)
                else:
                    diag.info("CMP001", where, message)

    seen: dict[str, str] = {p.name: "interface"
                            for p in list(component.provides)
                            + list(component.uses)}
    for category, ports in (("emits", component.emits),
                            ("consumes", component.consumes)):
        for port in ports:
            if port.name in seen:
                diag.error(
                    "CMP006", where,
                    f"component {component.name!r}: event port "
                    f"{port.name!r} duplicates a {seen[port.name]} port")
            seen[port.name] = "event"

    qos = component.qos
    for label, value in (("cpu", qos.cpu_units),
                         ("memory", qos.memory_mb),
                         ("bandwidth", qos.bandwidth_bps)):
        if value < 0:
            diag.error("CMP005", where,
                       f"component {component.name!r}: QoS {label} is "
                       f"negative ({value})")

    for service in component.framework_services:
        if service not in KNOWN_FRAMEWORK_SERVICES:
            diag.warning(
                "CMP004", where,
                f"component {component.name!r} requests unknown framework "
                f"service {service!r} (known: "
                f"{', '.join(sorted(KNOWN_FRAMEWORK_SERVICES))})")


def check_software(software: SoftwareDescriptor,
                   packages: PackageSet,
                   diag: Diagnostics,
                   source: str = "") -> None:
    """Check one software descriptor's dependencies against *packages*."""
    where = source or f"softpkg {software.name}"
    for dep in software.dependencies:
        if dep.versions.is_empty():
            diag.error(
                "CMP003", where,
                f"component {software.name!r}: dependency on "
                f"{dep.component!r} has empty version range "
                f"{dep.versions.text!r} (no version can satisfy it)")
            continue
        if packages.resolve(dep.component, dep.versions) is None:
            available = [str(v) for v in packages.versions_of(dep.component)]
            detail = (f"available versions: {', '.join(available)}"
                      if available else "no package by that name")
            diag.error(
                "CMP002", where,
                f"component {software.name!r}: dependency "
                f"{dep.component!r} {dep.versions} is unsatisfiable "
                f"({detail})")


def check_package_set(packages: PackageSet,
                      graph: InterfaceGraph,
                      diag: Diagnostics,
                      strict_interfaces: bool = True) -> None:
    """Run both descriptor checks over every package in the set."""
    for info in packages:
        check_component_type(info.component, graph, diag,
                             source=info.source,
                             strict_interfaces=strict_interfaces)
        check_software(info.software, packages, diag, source=info.source)

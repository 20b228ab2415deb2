"""The three layers composed: verify a whole application model.

An :class:`ApplicationModel` is everything the static verifier can see
about an application before deployment — IDL sources, the package set
(software + component-type descriptor pairs), and zero or more assembly
descriptors.  :func:`verify_model` runs layer 1 over every IDL source,
merges the interface graphs, then cross-checks descriptors (layer 2)
and assemblies (layer 3) against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.assembly import check_assembly
from repro.analysis.descriptors import PackageSet, check_package_set
from repro.idl import IdlLexError, IdlSyntaxError, parse
from repro.idl.check import InterfaceGraph, check_specification
from repro.util.diagnostics import Diagnostics
from repro.xmlmeta.descriptors import AssemblyDescriptor


@dataclass
class ApplicationModel:
    """Everything the verifier can see about one application."""

    #: source label -> IDL text
    idl_sources: dict[str, str] = field(default_factory=dict)
    packages: PackageSet = field(default_factory=PackageSet)
    #: (source label, descriptor) pairs
    assemblies: list[tuple[str, AssemblyDescriptor]] = \
        field(default_factory=list)
    #: interfaces known out-of-band (e.g. a live interface repository)
    seed_graph: Optional[InterfaceGraph] = None

    def add_idl(self, source: str, text: str) -> None:
        self.idl_sources[source] = text

    def add_assembly(self, assembly: AssemblyDescriptor,
                     source: str = "") -> None:
        self.assemblies.append((source or f"assembly {assembly.name}",
                                assembly))


def model_from_packages(packages, assembly: Optional[AssemblyDescriptor]
                        = None, ifr=None) -> ApplicationModel:
    """Build a model from live :class:`ComponentPackage` objects.

    *packages* is any iterable of component packages (e.g. drawn from
    node repositories); their bundled IDL sources feed layer 1.  When
    *ifr* is given, interfaces registered there (compiled stubs that
    ship no IDL text) seed the graph too.
    """
    model = ApplicationModel()
    seen_idl: set[str] = set()
    seen_pkg: set[tuple[str, str]] = set()
    for package in packages:
        key = (package.name, str(package.version))
        if key in seen_pkg:
            continue
        seen_pkg.add(key)
        model.packages.add_package(package)
        for path, text in sorted(package.idl_sources().items()):
            if text in seen_idl:
                continue
            seen_idl.add(text)
            model.add_idl(f"{package.name}:{path}", text)
    if ifr is not None:
        model.seed_graph = InterfaceGraph.from_ifr(ifr)
    if assembly is not None:
        model.add_assembly(assembly)
    return model


def verify_model(model: ApplicationModel,
                 diag: Optional[Diagnostics] = None,
                 strict_interfaces: bool = True) -> Diagnostics:
    """Run all three layers over *model*, returning the diagnostics.

    With ``strict_interfaces=False`` (the deployer gate's mode, where
    compiled stubs may carry interfaces no IDL text describes), port
    repo-ids that resolve nowhere are reported as info instead of
    errors, and connections between unprovable interfaces pass.
    """
    diag = diag if diag is not None else Diagnostics()

    graph = InterfaceGraph()
    if model.seed_graph is not None:
        graph.merge(model.seed_graph)
    for source in sorted(model.idl_sources):
        text = model.idl_sources[source]
        try:
            spec = parse(text)
        except (IdlSyntaxError, IdlLexError) as exc:
            diag.error("IDL000", source, f"does not parse: {exc}")
            continue
        checked = check_specification(spec, diag, source=source)
        graph.merge(checked.graph)

    check_package_set(model.packages, graph, diag,
                      strict_interfaces=strict_interfaces)

    for source, assembly in model.assemblies:
        check_assembly(assembly, model.packages, graph, diag,
                       source=source, strict_interfaces=strict_interfaces)
    return diag

"""ComponentClass: an installed component type, ready to instantiate.

Binds a validated :class:`~repro.packaging.package.ComponentPackage` to
the executable content resolved for a concrete platform — the runtime
equivalent of having dlopen()ed the right binary out of the package.
"""

from __future__ import annotations

from typing import Callable

from repro.packaging.binaries import GLOBAL_BINARIES
from repro.packaging.package import ComponentPackage, PackageError
from repro.sim.topology import HostProfile
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version


class ComponentClass:
    """An installed component: package + platform-resolved factory."""

    def __init__(self, package: ComponentPackage,
                 profile: HostProfile) -> None:
        self.package = package
        self.profile = profile
        impl = package.implementation_for(profile.os, profile.arch,
                                          profile.orb)
        if impl is None:
            raise PackageError(
                f"component {package.name!r} has no implementation for "
                f"platform ({profile.os}, {profile.arch}, {profile.orb})"
            )
        self.implementation = impl
        self.factory: Callable = GLOBAL_BINARIES.resolve(impl.entry_point)

    # -- descriptor shortcuts ------------------------------------------------
    @property
    def name(self) -> str:
        return self.package.name

    @property
    def version(self) -> Version:
        return self.package.version

    @property
    def software(self) -> SoftwareDescriptor:
        return self.package.software

    @property
    def component_type(self) -> ComponentTypeDescriptor:
        return self.package.component

    @property
    def is_mobile(self) -> bool:
        return self.software.is_mobile

    @property
    def replicable(self) -> bool:
        return self.software.replication != "none"

    @property
    def aggregatable(self) -> bool:
        return self.software.aggregation == "data-parallel"

    def new_executor(self):
        """Instantiate the executable content: a fresh executor."""
        return self.factory()

    def provides_repo_id(self, repo_id: str) -> bool:
        """Does any provided port implement *repo_id*?"""
        return any(p.repo_id == repo_id
                   for p in self.component_type.provides)

    def __repr__(self) -> str:
        return (f"<ComponentClass {self.name} v{self.version} "
                f"on {self.profile.name}>")

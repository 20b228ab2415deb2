"""The Component Repository: packages installed on one node.

"All hosts (nodes) in the system maintain a set of installed components
in its Component Repository.  All of those are available to be used by
any other component" (§2.4.3).  Installation validates platform
support and (optionally) the vendor signature; observers — the node's
Component Registry, and through it the Distributed Registry — are
notified on every change ("populating the node's Component Repository
makes the Distributed Registry aware of the change").
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.components.model import ComponentClass
from repro.packaging.package import ComponentPackage, PackageError
from repro.packaging.signature import VendorKeyRegistry
from repro.sim.topology import HostProfile
from repro.util.errors import ValidationError
from repro.xmlmeta.versions import Version, VersionRange


class NotInstalledError(ValidationError):
    """Lookup for a component this repository does not hold."""


class ComponentRepository:
    """Versioned store of installed component classes."""

    def __init__(self, profile: HostProfile,
                 vendor_keys: Optional[VendorKeyRegistry] = None,
                 require_signature: bool = False) -> None:
        self.profile = profile
        self.vendor_keys = vendor_keys
        self.require_signature = require_signature
        #: (name, version) -> ComponentClass
        self._classes: dict[tuple[str, Version], ComponentClass] = {}
        #: observers called with ("installed" | "removed", ComponentClass)
        self.listeners: list[Callable[[str, ComponentClass], None]] = []

    # -- installation -------------------------------------------------------
    def install(self, package: ComponentPackage) -> ComponentClass:
        """Install *package*; returns its ComponentClass.

        Validates platform support, rejects duplicate (name, version),
        and verifies the vendor signature when the repository demands
        signatures.
        """
        if self.require_signature:
            if self.vendor_keys is None:
                raise PackageError(
                    "repository requires signatures but has no key registry"
                )
            package.verify_signature(self.vendor_keys)
        key = (package.name, package.version)
        if key in self._classes:
            raise PackageError(
                f"{package.name} v{package.version} already installed"
            )
        cls = ComponentClass(package, self.profile)
        self._classes[key] = cls
        self._notify("installed", cls)
        return cls

    def remove(self, name: str, version: Version) -> ComponentClass:
        try:
            cls = self._classes.pop((name, version))
        except KeyError:
            raise NotInstalledError(f"{name} v{version} not installed") from None
        self._notify("removed", cls)
        return cls

    def _notify(self, action: str, cls: ComponentClass) -> None:
        for listener in list(self.listeners):
            listener(action, cls)

    # -- lookup ----------------------------------------------------------------
    def is_installed(self, name: str,
                     versions: VersionRange = VersionRange("")) -> bool:
        return any(n == name and versions.matches(v)
                   for (n, v) in self._classes)

    def lookup(self, name: str,
               versions: VersionRange = VersionRange("")) -> ComponentClass:
        """The best (highest) installed version of *name* in range."""
        candidates = [
            (v, cls) for (n, v), cls in self._classes.items()
            if n == name and versions.matches(v)
        ]
        if not candidates:
            raise NotInstalledError(
                f"component {name!r} (versions {versions}) not installed"
            )
        return max(candidates, key=lambda pair: pair[0])[1]

    def providers_of(self, repo_id: str) -> list[ComponentClass]:
        """Installed components with a provided port of type *repo_id*."""
        return [cls for cls in self._classes.values()
                if cls.provides_repo_id(repo_id)]

    def classes(self) -> list[ComponentClass]:
        return list(self._classes.values())

    def names(self) -> list[str]:
        return sorted({n for (n, _v) in self._classes})

    def package_bytes(self, name: str,
                      versions: VersionRange = VersionRange("")) -> bytes:
        """Raw archive of the best matching package (for shipping)."""
        return self.lookup(name, versions).package.data

    def __len__(self) -> int:
        return len(self._classes)

    def __contains__(self, name: str) -> bool:
        return self.is_installed(name)

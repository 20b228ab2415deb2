"""Building and reading component packages (real ZIP archives).

Layout of a package archive::

    META-INF/softpkg.xml        software (static/binary) descriptor
    META-INF/component.xml      component type (dynamic) descriptor
    META-INF/signature          "<vendor>\\n<hex hmac>" (optional)
    idl/<name>.idl              IDL sources
    bin/<os>-<arch>-<orb>/...   per-platform binary payloads

Requirements implemented from §2.3:

- binary + meta-information together (descriptors travel in the zip);
- compression for "possibly long and slow communication lines"
  (``compress=`` chooses DEFLATE vs STORED, and sizes differ for real);
- modularity: several platform binaries in one package, with
  :meth:`ComponentPackage.extract_subset` producing a smaller archive
  holding only the binaries one device needs (PDA case).
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from typing import Iterable, Optional

from repro.packaging.signature import SignatureError, VendorKeyRegistry
from repro.util.errors import ValidationError
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    SoftwareDescriptor,
)

SOFTPKG_PATH = "META-INF/softpkg.xml"
COMPONENT_PATH = "META-INF/component.xml"
SIGNATURE_PATH = "META-INF/signature"


class PackageError(ValidationError):
    """Malformed or inconsistent component package."""


class PackageBuilder:
    """Assembles a component package archive."""

    def __init__(self, software: SoftwareDescriptor,
                 component: ComponentTypeDescriptor) -> None:
        if software.name != component.name:
            raise PackageError(
                f"descriptor names differ: {software.name!r} vs "
                f"{component.name!r}"
            )
        self.software = software
        self.component = component
        self._idl: dict[str, str] = {}
        self._binaries: dict[str, bytes] = {}

    def add_idl(self, name: str, source: str) -> "PackageBuilder":
        self._idl[f"idl/{name}.idl"] = source
        return self

    def add_binary(self, path: str, payload: bytes) -> "PackageBuilder":
        if not path.startswith("bin/"):
            raise PackageError(f"binary path must start with 'bin/': {path!r}")
        self._binaries[path] = payload
        return self

    def _check_binaries_declared(self) -> None:
        declared = {impl.binary_path for impl in self.software.implementations}
        present = set(self._binaries)
        missing = declared - present
        if missing:
            raise PackageError(f"declared binaries missing: {sorted(missing)}")
        undeclared = present - declared
        if undeclared:
            raise PackageError(
                f"binaries not declared by any implementation: "
                f"{sorted(undeclared)}"
            )

    def build(self, compress: bool = True,
              signer: Optional[VendorKeyRegistry] = None) -> bytes:
        """Produce the archive bytes; optionally vendor-sign the content."""
        self._check_binaries_declared()
        members: dict[str, bytes] = {
            SOFTPKG_PATH: self.software.to_xml().encode(),
            COMPONENT_PATH: self.component.to_xml().encode(),
        }
        for path, text in self._idl.items():
            members[path] = text.encode()
        members.update(self._binaries)

        if signer is not None:
            digest = _content_digest(members)
            sig = signer.sign(self.software.vendor, digest)
            members[SIGNATURE_PATH] = (
                f"{self.software.vendor}\n{sig}\n".encode()
            )

        method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", compression=method) as zf:
            for path in sorted(members):
                zf.writestr(path, members[path])
        return buf.getvalue()


def _content_digest(members: dict[str, bytes]) -> bytes:
    """Canonical digest over member names and contents (sans signature)."""
    h = hashlib.sha256()
    for path in sorted(members):
        if path == SIGNATURE_PATH:
            continue
        h.update(path.encode())
        h.update(b"\x00")
        h.update(members[path])
        h.update(b"\x00")
    return h.digest()


class ComponentPackage:
    """A parsed, validated component package."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        try:
            with zipfile.ZipFile(io.BytesIO(data)) as zf:
                names = zf.namelist()
                self._members = {name: zf.read(name) for name in names}
        except zipfile.BadZipFile as exc:
            raise PackageError(f"not a zip archive: {exc}") from None
        if SOFTPKG_PATH not in self._members:
            raise PackageError(f"package lacks {SOFTPKG_PATH}")
        if COMPONENT_PATH not in self._members:
            raise PackageError(f"package lacks {COMPONENT_PATH}")
        self.software = SoftwareDescriptor.from_xml(
            self._members[SOFTPKG_PATH].decode())
        self.component = ComponentTypeDescriptor.from_xml(
            self._members[COMPONENT_PATH].decode())
        if self.software.name != self.component.name:
            raise PackageError("descriptor names disagree inside package")
        for impl in self.software.implementations:
            if impl.binary_path not in self._members:
                raise PackageError(
                    f"implementation binary {impl.binary_path!r} missing"
                )

    # -- identity -----------------------------------------------------------
    @property
    def name(self) -> str:
        return self.software.name

    @property
    def version(self):
        return self.software.version

    @property
    def size(self) -> int:
        """Archive size on the wire, in bytes."""
        return len(self.data)

    def members(self) -> list[str]:
        return sorted(self._members)

    def member(self, path: str) -> bytes:
        try:
            return self._members[path]
        except KeyError:
            raise PackageError(f"no member {path!r}") from None

    def idl_sources(self) -> dict[str, str]:
        return {
            path: self._members[path].decode()
            for path in self._members if path.startswith("idl/")
        }

    # -- platform selection ----------------------------------------------------
    def implementation_for(self, os: str, arch: str, orb: str):
        return self.software.implementation_for(os, arch, orb)

    # -- partial extraction (tiny devices) ----------------------------------------
    def extract_subset(self, os: str, arch: str,
                       orb: str) -> "ComponentPackage":
        """A new package holding only the binaries this platform needs.

        Metadata (descriptors, IDL, signature) is preserved; the
        software descriptor keeps only matching implementations.  This
        is the §2.3 requirement of shipping a PDA just its slice of a
        multi-platform package.  Note the subset's signature no longer
        covers the removed binaries, so it verifies only against its own
        reduced content — subsets are for local installs, not re-export.
        """
        impls = [i for i in self.software.implementations
                 if i.matches(os, arch, orb)]
        if not impls:
            raise PackageError(
                f"no implementation for platform ({os}, {arch}, {orb})"
            )
        import dataclasses
        sub_soft = dataclasses.replace(self.software, implementations=impls)
        builder = PackageBuilder(sub_soft, self.component)
        for path, text in self.idl_sources().items():
            name = path[len("idl/"):-len(".idl")]
            builder.add_idl(name, text)
        for impl in impls:
            builder.add_binary(impl.binary_path,
                               self._members[impl.binary_path])
        return ComponentPackage(builder.build())

    # -- signatures ------------------------------------------------------------------
    def is_signed(self) -> bool:
        return SIGNATURE_PATH in self._members

    def verify_signature(self, registry: VendorKeyRegistry) -> str:
        """Verify the vendor signature; returns the vendor name.

        Raises :class:`SignatureError` when unsigned, from an unknown
        vendor, or when content was tampered with.
        """
        if not self.is_signed():
            raise SignatureError(f"package {self.name!r} is unsigned")
        try:
            vendor, sig = (
                self._members[SIGNATURE_PATH].decode().strip().split("\n")
            )
        except ValueError:
            raise SignatureError("malformed signature member") from None
        registry.verify(vendor, _content_digest(self._members), sig)
        if vendor != self.software.vendor:
            raise SignatureError(
                f"signature vendor {vendor!r} does not match descriptor "
                f"vendor {self.software.vendor!r}"
            )
        return vendor

    def __repr__(self) -> str:
        return (f"<ComponentPackage {self.name} v{self.version} "
                f"{self.size} bytes>")

"""The Display component: local painting functions (Fig. 2).

"Each GUI component is in charge of a portion of the window ... GUI
components ... use the local Display component providing painting
functions."  The display is **pinned** — it abstracts the host's frame
buffer, so it can never migrate; everyone else calls it remotely or
locally through its ``graphics`` facet.
"""

from __future__ import annotations

from repro.components.executor import ComponentExecutor
from repro.idl import compile_idl
from repro.orb.core import Servant
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

_DISPLAY_IDL = """
#pragma prefix "corbalc"
module Cscw {
  interface Display {
    // Vector drawing: small wire footprint.
    void draw(in string window, in string primitive);
    // Raster delivery: the pixels cross the wire (big).
    void blit(in string window, in sequence<octet> pixels);
    long drawn_count();
    long blitted_bytes();
  };
};
"""

DISPLAY_IFACE = compile_idl(_DISPLAY_IDL).Cscw.Display

#: Painting costs a little CPU per call.
_DRAW_COST = 0.05


class _DisplayFacet(Servant):
    _interface = DISPLAY_IFACE

    def __init__(self, executor: "DisplayExecutor") -> None:
        self._executor = executor

    def draw(self, window: str, primitive: str) -> None:
        ex = self._executor
        ex.drawn += 1
        ex.windows.setdefault(window, []).append(primitive)

    def blit(self, window: str, pixels: bytes):
        ex = self._executor
        if ex.context is not None:
            yield ex.context.charge_cpu(_DRAW_COST)
        ex.drawn += 1
        ex.blitted += len(pixels)
        ex.windows.setdefault(window, []).append(f"<blit {len(pixels)}B>")

    def drawn_count(self) -> int:
        return self._executor.drawn

    def blitted_bytes(self) -> int:
        return self._executor.blitted


class DisplayExecutor(ComponentExecutor):
    """Frame-buffer stand-in: counts what was painted per window."""

    def __init__(self) -> None:
        super().__init__()
        self.drawn = 0
        self.blitted = 0
        self.windows: dict[str, list[str]] = {}

    def create_facet(self, port_name: str) -> Servant:
        assert port_name == "graphics"
        return _DisplayFacet(self)


def display_package(multi_platform: bool = False) -> ComponentPackage:
    """Package for the Display component (pinned, tiny footprint).

    With ``multi_platform=True`` the package carries separate binaries
    per platform (the §2.3 "same component ... Windows DLL, a Java
    .class file, and a TCL script" case), so
    :meth:`~repro.packaging.package.ComponentPackage.extract_subset`
    has something real to strip for a PDA.
    """
    entry = "cscw.display"
    GLOBAL_BINARIES.register(entry, DisplayExecutor)
    if multi_platform:
        impls = [
            ImplementationDescriptor("linux", "x86", "corba-lc", entry,
                                     "bin/linux-x86/display"),
            ImplementationDescriptor("win32", "x86", "corba-lc", entry,
                                     "bin/win32-x86/display"),
            ImplementationDescriptor("palmos", "arm", "corba-lc-micro",
                                     entry, "bin/palmos-arm/display"),
        ]
        binaries = {
            "bin/linux-x86/display": synthetic_payload(60_000, seed=21),
            "bin/win32-x86/display": synthetic_payload(80_000, seed=26),
            "bin/palmos-arm/display": synthetic_payload(6_000, seed=27),
        }
    else:
        impls = [ImplementationDescriptor("*", "*", "*", entry,
                                          "bin/any/display")]
        binaries = {"bin/any/display": synthetic_payload(3_000, seed=21)}
    soft = SoftwareDescriptor(
        name="Display", version=Version.parse("1.0.0"), vendor="cscw",
        abstract="Local painting functions (frame buffer facade).",
        mobility="pinned",
        implementations=impls,
    )
    comp = ComponentTypeDescriptor(
        name="Display",
        provides=[PortDecl("graphics", DISPLAY_IFACE.repo_id)],
        # Cheap enough for a PDA: tiny devices drive their own screens.
        qos=QoSSpec(cpu_units=5.0, memory_mb=2.0),
        lifecycle="service",
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("display", _DISPLAY_IDL)
    for path, payload in binaries.items():
        builder.add_binary(path, payload)
    return ComponentPackage(builder.build())

"""Shared whiteboard: model component + replaceable GUI parts (Fig. 2).

The whiteboard model holds the shared stroke list and emits one
``cscw.stroke`` event per change; GUI-part components subscribe to the
stream and render their portion of the application window through the
(local or remote) Display.  "Applications can change how the data is
shown by replacing the GUI components with others at run-time" — GUI
parts come in two render styles to exercise exactly that.
"""

from __future__ import annotations

from repro.components.executor import ComponentExecutor, StatefulMixin
from repro.cscw.display import DISPLAY_IFACE
from repro.idl import compile_idl
from repro.orb.core import Servant
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    EventPortDecl,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

_SURFACE_IDL = """
#pragma prefix "corbalc"
module Cscw {
  struct Stroke {
    string author;
    double x0; double y0; double x1; double y1;
    string color;
  };
  interface Surface {
    void add_stroke(in Stroke s);
    sequence<Stroke> strokes();
    void clear();
    long revision();
  };
};
"""

_mod = compile_idl(_SURFACE_IDL).Cscw
SURFACE_IFACE = _mod.Surface
STROKE_TC = _mod.Stroke

STROKE_EVENT = "cscw.stroke"


class _SurfaceFacet(Servant):
    _interface = SURFACE_IFACE

    def __init__(self, executor: "WhiteboardExecutor") -> None:
        self._executor = executor

    def add_stroke(self, stroke: dict) -> None:
        ex = self._executor
        ex.stroke_list.append(stroke)
        ex.rev += 1
        if ex.context is not None:
            from repro.orb.cdr import Any
            ex.context.emit("changes", Any(STROKE_TC, stroke))

    def strokes(self) -> list[dict]:
        return list(self._executor.stroke_list)

    def clear(self) -> None:
        self._executor.stroke_list.clear()
        self._executor.rev += 1

    def revision(self) -> int:
        return self._executor.rev


class WhiteboardExecutor(StatefulMixin, ComponentExecutor):
    """The shared model: stroke list + change events."""

    STATE_ATTRS = ("stroke_list", "rev")

    def __init__(self) -> None:
        super().__init__()
        self.stroke_list: list[dict] = []
        self.rev = 0

    def create_facet(self, port_name: str) -> Servant:
        assert port_name == "surface"
        return _SurfaceFacet(self)


def whiteboard_package() -> ComponentPackage:
    entry = "cscw.whiteboard"
    GLOBAL_BINARIES.register(entry, WhiteboardExecutor)
    soft = SoftwareDescriptor(
        name="Whiteboard", version=Version.parse("1.0.0"), vendor="cscw",
        abstract="Shared stroke model with change events.",
        mobility="mobile", replication="coordinated",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/whiteboard")],
    )
    comp = ComponentTypeDescriptor(
        name="Whiteboard",
        provides=[PortDecl("surface", SURFACE_IFACE.repo_id)],
        emits=[EventPortDecl("changes", STROKE_EVENT)],
        qos=QoSSpec(cpu_units=20.0, memory_mb=16.0),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("surface", _SURFACE_IDL)
    builder.add_binary("bin/any/whiteboard",
                       synthetic_payload(8_000, seed=22))
    return ComponentPackage(builder.build())


class GuiPartExecutor(ComponentExecutor):
    """One portion of the application window (Fig. 2 "GUI part N").

    Consumes stroke events and paints them on the Display wired to its
    ``display`` receptacle.  ``RENDER_STYLE`` is what a replacement GUI
    part would change.
    """

    RENDER_STYLE = "wireframe"

    def __init__(self) -> None:
        super().__init__()
        self.rendered = 0

    def on_event(self, port_name: str, value) -> None:
        if port_name != "board":
            return
        self.rendered += 1
        display = self.context.connection("display")
        if display is None:
            return
        stroke = value.value
        primitive = (f"{self.RENDER_STYLE}:{stroke['color']} "
                     f"({stroke['x0']},{stroke['y0']})->"
                     f"({stroke['x1']},{stroke['y1']})")
        # Fire-and-forget paint; the display counts it.
        display.draw(f"window.{self.context.instance_id}", primitive)


class FilledGuiPartExecutor(GuiPartExecutor):
    """The drop-in replacement look ("replacing the presentation layer
    to suit additional user or application needs")."""

    RENDER_STYLE = "filled"


def gui_part_package(style: str = "wireframe",
                     name: str = "BoardGui") -> ComponentPackage:
    executor_cls = (GuiPartExecutor if style == "wireframe"
                    else FilledGuiPartExecutor)
    entry = f"cscw.gui.{style}"
    GLOBAL_BINARIES.register(entry, executor_cls)
    soft = SoftwareDescriptor(
        name=name, version=Version.parse("1.0.0"), vendor="cscw",
        abstract=f"Whiteboard GUI part ({style} renderer).",
        mobility="mobile", replication="stateless",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/gui")],
    )
    comp = ComponentTypeDescriptor(
        name=name,
        uses=[PortDecl("display", DISPLAY_IFACE.repo_id)],
        consumes=[EventPortDecl("board", STROKE_EVENT)],
        qos=QoSSpec(cpu_units=30.0, memory_mb=24.0),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("display", "// uses Cscw::Display, see display.idl")
    builder.add_binary("bin/any/gui", synthetic_payload(12_000, seed=23))
    return ComponentPackage(builder.build())

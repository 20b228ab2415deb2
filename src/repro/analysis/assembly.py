"""Layer 3: whole-application checks over an assembly descriptor.

An assembly names instances of packaged components and wires their
ports; this layer proves the wiring diagram is realisable *before* the
planner spreads it over live nodes: every instance must resolve to a
package, every connection endpoint must name a declared port of the
right direction, interface connections must be type-compatible under
the layer-1 subtype oracle, and event connections must agree on the
event kind.

======== ==================================================================
code     meaning
======== ==================================================================
ASM001   instance names a component no package provides
ASM002   instance version range unsatisfiable against the package set
ASM003   duplicate instance name
ASM004   connection endpoint names an undeclared instance
ASM005   connection endpoint names a port the component lacks
ASM006   connection endpoint uses a port in the wrong direction/kind
ASM007   provided interface is not a subtype of the used interface
ASM008   event connection between ports of different event kinds
ASM009   dependency cycle across interface connections (warning)
ASM010   required (non-optional) receptacle left unconnected (warning)
======== ==================================================================
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.descriptors import PackageInfo, PackageSet
from repro.idl.check import InterfaceGraph
from repro.util.diagnostics import Diagnostics
from repro.xmlmeta.descriptors import AssemblyDescriptor


def _port(component, name: str):
    """(category, port) for *name* across all four port lists, or None."""
    for category, ports in (("provides", component.provides),
                            ("uses", component.uses),
                            ("emits", component.emits),
                            ("consumes", component.consumes)):
        for port in ports:
            if port.name == name:
                return category, port
    return None


def check_assembly(assembly: AssemblyDescriptor,
                   packages: PackageSet,
                   graph: InterfaceGraph,
                   diag: Diagnostics,
                   source: str = "",
                   strict_interfaces: bool = True) -> None:
    """Check *assembly* against the package set and interface graph."""
    where = source or f"assembly {assembly.name}"

    # -- instances ----------------------------------------------------------
    resolved: dict[str, Optional[PackageInfo]] = {}
    seen_names: set[str] = set()
    for inst in assembly.instances:
        if inst.name in seen_names:
            diag.error("ASM003", where,
                       f"duplicate instance name {inst.name!r}")
        seen_names.add(inst.name)
        if inst.component not in packages:
            diag.error(
                "ASM001", where,
                f"instance {inst.name!r}: no package provides component "
                f"{inst.component!r} (known: "
                f"{', '.join(packages.names()) or 'none'})")
            resolved[inst.name] = None
            continue
        if inst.versions.is_empty():
            diag.error(
                "ASM002", where,
                f"instance {inst.name!r}: version range "
                f"{inst.versions.text!r} for {inst.component!r} is empty")
            resolved[inst.name] = None
            continue
        info = packages.resolve(inst.component, inst.versions)
        if info is None:
            available = [str(v) for v in
                         packages.versions_of(inst.component)]
            diag.error(
                "ASM002", where,
                f"instance {inst.name!r}: no version of "
                f"{inst.component!r} satisfies {inst.versions} "
                f"(available: {', '.join(available)})")
        resolved[inst.name] = info

    # -- connections --------------------------------------------------------
    wired_receptacles: set[tuple[str, str]] = set()
    dep_edges: dict[str, set[str]] = {}
    for conn in assembly.connections:
        label = (f"connection {conn.from_instance}.{conn.from_port} -> "
                 f"{conn.to_instance}.{conn.to_port}")
        endpoints = []
        dangling = False
        for inst_name, port_name, role in (
                (conn.from_instance, conn.from_port, "from"),
                (conn.to_instance, conn.to_port, "to")):
            if inst_name not in resolved:
                diag.error("ASM004", where,
                           f"{label}: {role}-endpoint names undeclared "
                           f"instance {inst_name!r}")
                dangling = True
                continue
            info = resolved[inst_name]
            if info is None:
                dangling = True     # ASM001/ASM002 already reported
                continue
            found = _port(info.component, port_name)
            if found is None:
                diag.error(
                    "ASM005", where,
                    f"{label}: component {info.name!r} has no port "
                    f"{port_name!r}")
                dangling = True
                continue
            endpoints.append((inst_name, info, found))
        if dangling or len(endpoints) != 2:
            continue

        (f_inst, f_info, (f_cat, f_port)) = endpoints[0]
        (t_inst, t_info, (t_cat, t_port)) = endpoints[1]

        if conn.kind == "interface":
            ok = True
            if f_cat != "uses":
                diag.error(
                    "ASM006", where,
                    f"{label}: from-port {conn.from_port!r} is a "
                    f"{f_cat} port, expected a receptacle (uses)")
                ok = False
            if t_cat != "provides":
                diag.error(
                    "ASM006", where,
                    f"{label}: to-port {conn.to_port!r} is a "
                    f"{t_cat} port, expected a facet (provides)")
                ok = False
            if ok:
                wired_receptacles.add((f_inst, conn.from_port))
                dep_edges.setdefault(f_inst, set()).add(t_inst)
                used, provided = f_port.repo_id, t_port.repo_id
                if used != provided:
                    known = used in graph and provided in graph
                    if known and not graph.is_subtype(provided, used):
                        diag.error(
                            "ASM007", where,
                            f"{label}: provided interface {provided!r} is "
                            f"not a subtype of the receptacle's expected "
                            f"interface {used!r}")
                    elif not known and strict_interfaces:
                        diag.error(
                            "ASM007", where,
                            f"{label}: cannot prove {provided!r} "
                            f"compatible with {used!r} (interface not "
                            f"declared in any IDL source)")
        else:  # event
            ok = True
            if f_cat != "consumes":
                diag.error(
                    "ASM006", where,
                    f"{label}: from-port {conn.from_port!r} is a "
                    f"{f_cat} port, expected an event sink (consumes)")
                ok = False
            if t_cat != "emits":
                diag.error(
                    "ASM006", where,
                    f"{label}: to-port {conn.to_port!r} is a "
                    f"{t_cat} port, expected an event source (emits)")
                ok = False
            if ok and f_port.event_kind != t_port.event_kind:
                diag.error(
                    "ASM008", where,
                    f"{label}: sink consumes kind "
                    f"{f_port.event_kind!r} but source emits "
                    f"{t_port.event_kind!r}")

    # -- whole-graph checks -------------------------------------------------
    for cycle in _cycles(dep_edges):
        diag.warning(
            "ASM009", where,
            f"dependency cycle across connections: "
            f"{' -> '.join(cycle)} -> {cycle[0]} (deployment order is "
            f"unconstrained; startup may observe unwired receptacles)")

    for inst in assembly.instances:
        info = resolved.get(inst.name)
        if info is None:
            continue
        for port in info.component.uses:
            if not port.optional and (inst.name,
                                      port.name) not in wired_receptacles:
                diag.warning(
                    "ASM010", where,
                    f"instance {inst.name!r}: required receptacle "
                    f"{port.name!r} ({port.repo_id}) is not connected")


def _cycles(edges: dict[str, set[str]]) -> list[list[str]]:
    """Distinct simple cycles in the instance dependency graph."""
    color: dict[str, int] = {}
    path: list[str] = []
    found: list[list[str]] = []
    reported: set[frozenset] = set()

    def visit(node: str) -> None:
        color[node] = 0
        path.append(node)
        for target in sorted(edges.get(node, ())):
            if target not in color:
                visit(target)
            elif color[target] == 0:
                cycle = path[path.index(target):]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    found.append(list(cycle))
        path.pop()
        color[node] = 1

    for node in sorted(edges):
        if node not in color:
            visit(node)
    return found

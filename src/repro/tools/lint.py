"""Static verification CLI: ``python -m repro.tools.lint PATH...``.

Walks the given files/directories collecting ``.idl`` sources and the
three descriptor XML kinds (recognised by root tag: ``softpkg``,
``componenttype``, ``assembly``), builds one
:class:`~repro.analysis.verifier.ApplicationModel`, and runs all three
verifier layers over it.  Softpkg/componenttype files pair up by
component name.

Exit code is the maximum severity seen (0 clean/info, 1 warnings,
2 errors), so shell gates can distinguish "suspicious" from "wrong".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

from repro.analysis.verifier import ApplicationModel, verify_model
from repro.util.diagnostics import Diagnostics
from repro.xmlmeta.descriptors import (
    AssemblyDescriptor,
    ComponentTypeDescriptor,
    SoftwareDescriptor,
)
from repro.xmlmeta.schema import SchemaError
from repro.xmlmeta.versions import Version


def gather_paths(paths: list[str]) -> list[Path]:
    """Expand files/directories into the sorted list of lintable files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.idl"))
            out.update(path.rglob("*.xml"))
        else:
            out.add(path)
    return sorted(out)


def build_model(files: list[Path], diag: Diagnostics) -> ApplicationModel:
    """Parse every input file into one application model.

    File-level problems (unreadable, unparsable XML, unknown root tag,
    schema violations) become findings; good files contribute their
    IDL/descriptor to the model.
    """
    model = ApplicationModel()
    software: dict[str, tuple[str, SoftwareDescriptor]] = {}
    components: dict[str, tuple[str, ComponentTypeDescriptor]] = {}

    for path in files:
        label = str(path)
        try:
            text = path.read_text()
        except OSError as exc:
            diag.error("LNT001", label, f"cannot read: {exc}")
            continue
        if path.suffix == ".idl":
            model.add_idl(label, text)
            continue
        try:
            root_tag = ET.fromstring(text).tag
        except ET.ParseError as exc:
            diag.error("SCH001", label, f"malformed XML: {exc}")
            continue
        try:
            if root_tag == "softpkg":
                desc = SoftwareDescriptor.from_xml(text)
                software[desc.name] = (label, desc)
            elif root_tag == "componenttype":
                desc = ComponentTypeDescriptor.from_xml(text)
                components[desc.name] = (label, desc)
            elif root_tag == "assembly":
                model.add_assembly(AssemblyDescriptor.from_xml(text),
                                   source=label)
            else:
                diag.error("LNT002", label,
                           f"unknown document root <{root_tag}> (expected "
                           f"softpkg, componenttype or assembly)")
        except SchemaError as exc:
            for finding in exc.findings:
                diag.error(finding.code, f"{label}{finding.location}",
                           finding.message)
        except Exception as exc:  # descriptor-level validation
            diag.error("LNT003", label, f"invalid descriptor: {exc}")

    for name in sorted(set(software) | set(components)):
        soft = software.get(name)
        comp = components.get(name)
        if soft is None:
            label, desc = comp
            diag.warning("LNT004", label,
                         f"componenttype {name!r} has no matching softpkg")
            model.packages.add(
                SoftwareDescriptor(name=name, version=Version(0, 0, 0)),
                desc, source=label)
            continue
        if comp is None:
            label, desc = soft
            diag.warning("LNT004", label,
                         f"softpkg {name!r} has no matching componenttype")
            continue
        model.packages.add(soft[1], comp[1],
                           source=f"{soft[0]} + {comp[0]}")
    return model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description="Statically verify IDL + XML descriptor sets.")
    parser.add_argument("paths", nargs="+",
                        help="files or directories (*.idl, *.xml)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--lenient-interfaces", action="store_true",
                        help="do not require every port repo-id to "
                             "resolve to declared IDL")
    args = parser.parse_args(argv)

    diag = Diagnostics()
    files = gather_paths(args.paths)
    if not files:
        print("nothing to lint", file=sys.stderr)
        return 2
    model = build_model(files, diag)
    verify_model(model, diag,
                 strict_interfaces=not args.lenient_interfaces)

    if args.format == "json":
        print(json.dumps(diag.as_dict(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(diag.render_text())
    return diag.max_severity()


if __name__ == "__main__":
    sys.exit(main())

"""A small DTD-style validator for XML element trees.

The paper's descriptors are "described using XML files ... The Document
Type Definitions (DTDs) describing those files are based upon the ...
Open Software Descriptor DTD" (§2.1.1).  This module provides the
equivalent validation: each :class:`ElementSpec` constrains an element's
attributes and children with DTD-like cardinalities.

Validation collects *every* violation in one pass — each as a
:class:`~repro.util.diagnostics.Finding` (code ``SCH001``, location =
the element path) — so one run reports everything wrong with a
document.  :func:`validate_element` then raises a single
:class:`SchemaError` carrying all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from repro.util.diagnostics import Finding, Severity
from repro.util.errors import ValidationError

#: Finding code for every schema-level violation.
SCHEMA_VIOLATION = "SCH001"


class SchemaError(ValidationError):
    """An XML document violated its descriptor schema.

    ``findings`` holds one :class:`Finding` per violation; the message
    joins them so callers matching on substrings keep working.
    """

    def __init__(self, message_or_findings) -> None:
        if isinstance(message_or_findings, str):
            findings = [Finding(code=SCHEMA_VIOLATION,
                                severity=Severity.ERROR, location="",
                                message=message_or_findings)]
        else:
            findings = list(message_or_findings)
        self.findings = findings
        super().__init__("; ".join(
            (f"{f.location}: {f.message}" if f.location else f.message)
            for f in findings))


#: Cardinality markers, DTD style.
ONE = "1"        # exactly one
OPT = "?"        # zero or one
MANY = "*"       # zero or more
SOME = "+"       # one or more


@dataclass
class ElementSpec:
    """Schema for one element type.

    ``children`` maps child tag -> (ElementSpec, cardinality).
    ``required_attrs`` / ``optional_attrs`` constrain attributes; other
    attributes are rejected.  ``text`` allows character content.
    """

    tag: str
    required_attrs: tuple[str, ...] = ()
    optional_attrs: tuple[str, ...] = ()
    children: dict = field(default_factory=dict)
    text: bool = False

    def child(self, spec: "ElementSpec", cardinality: str = MANY) -> "ElementSpec":
        """Declare a child element; returns self for chaining."""
        if cardinality not in (ONE, OPT, MANY, SOME):
            raise ValidationError(f"bad cardinality {cardinality!r}")
        self.children[spec.tag] = (spec, cardinality)
        return self


def collect_violations(element: ET.Element, spec: ElementSpec,
                       _path: str = "") -> list[Finding]:
    """Every schema violation in *element*'s subtree, none fatal.

    Locations are element paths (``/softpkg/license``); a tag mismatch
    stops descent below that element (its children cannot be judged
    against a spec that does not describe them) but sibling subtrees
    are still checked.
    """
    where = f"{_path}/{element.tag}"
    found: list[Finding] = []

    def violation(message: str) -> None:
        found.append(Finding(code=SCHEMA_VIOLATION, severity=Severity.ERROR,
                             location=where, message=message))

    if element.tag != spec.tag:
        violation(f"expected element <{spec.tag}>")
        return found

    allowed = set(spec.required_attrs) | set(spec.optional_attrs)
    for attr in element.attrib:
        if attr not in allowed:
            violation(f"unexpected attribute {attr!r}")
    for attr in spec.required_attrs:
        if attr not in element.attrib:
            violation(f"missing attribute {attr!r}")

    if not spec.text and element.text and element.text.strip():
        violation("character content not allowed")

    counts: dict[str, int] = {}
    for child in element:
        entry = spec.children.get(child.tag)
        if entry is None:
            violation(f"unexpected child <{child.tag}>")
            continue
        child_spec, _card = entry
        found.extend(collect_violations(child, child_spec, where))
        counts[child.tag] = counts.get(child.tag, 0) + 1

    for tag, (_spec, card) in spec.children.items():
        n = counts.get(tag, 0)
        if card == ONE and n != 1:
            violation(f"needs exactly one <{tag}>, got {n}")
        if card == OPT and n > 1:
            violation(f"at most one <{tag}>, got {n}")
        if card == SOME and n < 1:
            violation(f"needs at least one <{tag}>")
    return found


def validate_element(element: ET.Element, spec: ElementSpec) -> None:
    """Validate *element* against *spec*.

    Raises one :class:`SchemaError` carrying *all* violations (on its
    ``findings`` attribute) rather than stopping at the first.
    """
    found = collect_violations(element, spec)
    if found:
        raise SchemaError(found)


def parse_and_validate(xml_text: str, spec: ElementSpec) -> ET.Element:
    """Parse *xml_text* and validate the root against *spec*."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise SchemaError(f"malformed XML: {exc}") from None
    validate_element(root, spec)
    return root

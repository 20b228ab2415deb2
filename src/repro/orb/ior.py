"""Interoperable Object References.

An IOR names a CORBA object: the interface it implements (repository
id), the host it lives on, the object adapter within that host's ORB,
and the object key within that adapter.  IORs are value objects —
hashable, comparable and round-trippable through a stringified form, so
they can be passed through CDR, stored in registries and published in
XML descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass

_FORBIDDEN = frozenset("/@\n")
#: a repository id may contain "/" ("IDL:corbalc/Node:1.0")
_FORBIDDEN_REPO_ID = frozenset("@\n")


def _check_part(label: str, value: str) -> str:
    if not value:
        raise ValueError(f"IOR {label} must be non-empty")
    if not _FORBIDDEN.isdisjoint(value):
        raise ValueError(f"IOR {label} {value!r} contains a reserved character")
    return value


@dataclass(frozen=True)
class IOR:
    """A reference to one CORBA object."""

    repo_id: str      # e.g. "IDL:corbalc/Node:1.0"
    host_id: str      # simulated host the servant lives on
    adapter: str      # object adapter name within that host's ORB
    object_key: str   # key within the adapter

    def __post_init__(self) -> None:
        if not self.repo_id:
            raise ValueError("IOR repo_id must be non-empty")
        if not _FORBIDDEN_REPO_ID.isdisjoint(self.repo_id):
            raise ValueError(f"IOR repo_id {self.repo_id!r} has reserved chars")
        _check_part("host_id", self.host_id)
        _check_part("adapter", self.adapter)
        _check_part("object_key", self.object_key)

    def to_string(self) -> str:
        """Stringified form, parseable by :meth:`from_string`."""
        return f"IOR:{self.repo_id}@{self.host_id}/{self.adapter}/{self.object_key}"

    @classmethod
    def from_string(cls, text: str) -> "IOR":
        """Parse a stringified IOR; raises ValueError on malformed input."""
        if not text.startswith("IOR:"):
            raise ValueError(f"not a stringified IOR: {text!r}")
        rest = text[4:]
        try:
            repo_id, location = rest.split("@", 1)
            host_id, adapter, object_key = location.split("/", 2)
        except ValueError:
            raise ValueError(f"malformed IOR: {text!r}") from None
        return cls(repo_id=repo_id, host_id=host_id, adapter=adapter,
                   object_key=object_key)

    def __str__(self) -> str:
        return self.to_string()

"""The Interface Repository.

The Interface Repository stores :class:`~repro.orb.model.InterfaceDef`
objects by repository id — the ORB-wide type knowledge that CORBA-LC's
reflection architecture builds on.  The IDL compiler registers what it
compiles; receptacle ports build typed stubs from it, and the
deployment gate verifies assemblies against it.

Dynamic invocation needs no request object of its own: look the
operation up by the repo id the target's IOR carries and hand it to the
ORB, which marshals from the operation's TypeCodes::

    odef = GLOBAL_IFR.require(ior.repo_id).find_operation("add")
    result = orb.sync(orb.invoke(ior, odef, (20, 22)))
"""

from __future__ import annotations

from typing import Optional

from repro.orb.exceptions import BAD_PARAM
from repro.orb.model import InterfaceDef
from repro.util.errors import ConfigurationError


class InterfaceRepository:
    """Process-wide registry of interface definitions by repository id."""

    def __init__(self) -> None:
        self._by_id: dict[str, InterfaceDef] = {}

    def register(self, iface: InterfaceDef, replace: bool = False) -> InterfaceDef:
        existing = self._by_id.get(iface.repo_id)
        if existing is not None and not replace:
            if existing is iface:
                return iface
            raise ConfigurationError(
                f"interface {iface.repo_id!r} already registered"
            )
        self._by_id[iface.repo_id] = iface
        return iface

    def lookup(self, repo_id: str) -> Optional[InterfaceDef]:
        return self._by_id.get(repo_id)

    def require(self, repo_id: str) -> InterfaceDef:
        iface = self.lookup(repo_id)
        if iface is None:
            raise BAD_PARAM(f"unknown interface {repo_id!r}")
        return iface

    def ids(self) -> list[str]:
        return sorted(self._by_id)

    def __contains__(self, repo_id: str) -> bool:
        return repo_id in self._by_id


#: The default, process-wide repository.  Simulations may create their
#: own, but interface definitions are immutable type data so sharing one
#: across simulations is safe and matches how real IDL stubs are global.
GLOBAL_IFR = InterfaceRepository()

"""Dynamic invocation and the Interface Repository.

The Interface Repository stores :class:`~repro.orb.model.InterfaceDef`
objects by repository id — the ORB-wide type knowledge that CORBA-LC's
reflection architecture builds on.  :class:`Request` lets a caller
invoke an operation knowing only TypeCodes, without a generated stub
(used by the visual-builder-style tooling and the component framework's
generic port wiring).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.orb.exceptions import BAD_OPERATION, BAD_PARAM
from repro.orb.ior import IOR
from repro.orb.model import InterfaceDef, OperationDef, ParamDef
from repro.orb.typecodes import TypeCode, tc_void
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.orb.core import ORB


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


class Request:
    """A dynamically-assembled invocation (CORBA DII ``Request``)."""

    def __init__(self, orb: ORB, target: IOR, operation: str) -> None:
        self.orb = orb
        self.target = target
        self.operation = operation
        self._params: list[ParamDef] = []
        self._args: list[Any] = []
        self._result_tc: TypeCode = tc_void
        self._raises: list[TypeCode] = []
        self._oneway = False

    def add_in_arg(self, name: str, tc: TypeCode, value: Any) -> "Request":
        self._params.append(ParamDef(name, tc, "in"))
        self._args.append(value)
        return self

    def add_inout_arg(self, name: str, tc: TypeCode, value: Any) -> "Request":
        self._params.append(ParamDef(name, tc, "inout"))
        self._args.append(value)
        return self

    def add_out_arg(self, name: str, tc: TypeCode) -> "Request":
        self._params.append(ParamDef(name, tc, "out"))
        return self

    def set_return_type(self, tc: TypeCode) -> "Request":
        self._result_tc = tc
        return self

    def add_exception(self, tc: TypeCode) -> "Request":
        self._raises.append(tc)
        return self

    def set_oneway(self, oneway: bool = True) -> "Request":
        self._oneway = oneway
        return self

    def _odef(self) -> OperationDef:
        return OperationDef(
            name=self.operation,
            params=tuple(self._params),
            result=self._result_tc,
            raises=tuple(self._raises),
            oneway=self._oneway,
        )

    def invoke(self, timeout: Optional[float] = None):
        """Send the request; returns the kernel Event with the result."""
        return self.orb.invoke(self.target, self._odef(), tuple(self._args),
                               timeout=timeout)

    def invoke_sync(self, timeout: Optional[float] = None):
        """Send and run the simulation until the reply arrives."""
        return self.orb.sync(self.invoke(timeout=timeout))


def request_from_ifr(orb: ORB, ifr: InterfaceRepository, target: IOR,
                     operation: str, args: Sequence[Any]) -> Request:
    """Build a Request using the signature stored in the repository.

    This is what generic tooling does: look the target's interface up by
    the repo id embedded in its IOR, find the operation, and marshal
    accordingly.
    """
    iface = ifr.require(target.repo_id)
    odef = iface.find_operation(operation)
    if odef is None:
        raise BAD_OPERATION(f"{iface.name} has no operation {operation!r}")
    req = Request(orb, target, operation)
    in_params = odef.in_params()
    if len(args) != len(in_params):
        raise BAD_PARAM(
            f"{operation} expects {len(in_params)} args, got {len(args)}"
        )
    arg_iter = iter(args)
    for pdef in odef.params:
        if pdef.mode == "in":
            req.add_in_arg(pdef.name, pdef.tc, next(arg_iter))
        elif pdef.mode == "inout":
            req.add_inout_arg(pdef.name, pdef.tc, next(arg_iter))
        else:
            req.add_out_arg(pdef.name, pdef.tc)
    req.set_return_type(odef.result)
    for tc in odef.raises:
        req.add_exception(tc)
    req.set_oneway(odef.oneway)
    return req

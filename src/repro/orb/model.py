"""The interface model: what an ORB invokes and what it incarnates.

Operation and interface definitions, the servant base class, the
user-exception registry and the client-side :class:`Stub`.  This module
sits *below* the runtime: :mod:`repro.orb.poa`, the listener and
:mod:`repro.orb.core` all import it, and it imports none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.orb.compiled import OperationCodec
from repro.orb.exceptions import UserException
from repro.orb.ior import IOR
from repro.orb.typecodes import TCKind, TypeCode, tc_void
from repro.sim.kernel import Event
from repro.util.errors import ConfigurationError

#: Default per-operation dispatch cost in abstract work units; a desktop
#: (cpu_power=400) spends 0.25 ms per unit-cost operation.
DEFAULT_OP_COST = 0.1

PARAM_MODES = ("in", "inout", "out")


@dataclass(frozen=True)
class ParamDef:
    """One formal parameter of an IDL operation."""

    name: str
    tc: TypeCode
    mode: str = "in"

    def __post_init__(self) -> None:
        if self.mode not in PARAM_MODES:
            raise ConfigurationError(f"bad parameter mode {self.mode!r}")


@dataclass(frozen=True)
class OperationDef:
    """Signature of one IDL operation.

    ``raises`` lists the EXCEPT TypeCodes of declared user exceptions.
    ``cpu_cost`` is the simulated work the server performs per call.
    """

    name: str
    params: tuple[ParamDef, ...] = ()
    result: TypeCode = tc_void
    raises: tuple[TypeCode, ...] = ()
    oneway: bool = False
    cpu_cost: float = DEFAULT_OP_COST
    _codec: Optional[OperationCodec] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.oneway and (
            self.result.kind is not TCKind.VOID
            or any(p.mode != "in" for p in self.params)
            or self.raises
        ):
            raise ConfigurationError(
                f"oneway operation {self.name!r} must be void, in-only, "
                "and raise nothing"
            )

    def codec(self) -> OperationCodec:
        """The operation's plans, resolved on first use and pinned on
        the frozen (so never stale) definition.  Hot paths read ``_codec``
        itself: a ``cached_property`` read costs ~30 ns more (CPython 3.11).
        """
        codec = self._codec
        if codec is None:
            codec = OperationCodec(self)
            object.__setattr__(self, "_codec", codec)
        return codec

    def in_params(self) -> list[ParamDef]:
        return [p for p in self.params if p.mode in ("in", "inout")]

    def out_params(self) -> list[ParamDef]:
        return [p for p in self.params if p.mode in ("inout", "out")]


def op(name: str, params: Sequence[tuple] = (), result: TypeCode = tc_void,
       raises: Sequence[TypeCode] = (), oneway: bool = False,
       cpu_cost: float = DEFAULT_OP_COST) -> OperationDef:
    """Shorthand OperationDef constructor.

    *params* entries are ``(name, tc)`` (mode "in") or ``(name, tc, mode)``.
    """
    pdefs = []
    for entry in params:
        if len(entry) == 2:
            pdefs.append(ParamDef(entry[0], entry[1]))
        else:
            pdefs.append(ParamDef(entry[0], entry[1], entry[2]))
    return OperationDef(name=name, params=tuple(pdefs), result=result,
                        raises=tuple(raises), oneway=oneway, cpu_cost=cpu_cost)


class InterfaceDef:
    """An IDL interface: named operations plus inherited bases."""

    def __init__(self, repo_id: str, name: str,
                 operations: Iterable[OperationDef] = (),
                 bases: Sequence["InterfaceDef"] = ()) -> None:
        self.repo_id = repo_id
        self.name = name
        self.bases = tuple(bases)
        self.operations: dict[str, OperationDef] = {}
        #: flattened name -> OperationDef lookup, built lazily on the
        #: dispatch hot path and invalidated by add_operation.
        self._op_cache: Optional[dict[str, OperationDef]] = None
        for odef in operations:
            self.add_operation(odef)

    def add_operation(self, odef: OperationDef) -> None:
        if odef.name in self.operations:
            raise ConfigurationError(
                f"duplicate operation {odef.name!r} on {self.name}"
            )
        self.operations[odef.name] = odef
        self._op_cache = None

    def add_attribute(self, name: str, tc: TypeCode,
                      readonly: bool = False) -> None:
        """Model an IDL attribute as _get_/_set_ operations."""
        self.add_operation(OperationDef(f"_get_{name}", (), tc))
        if not readonly:
            self.add_operation(
                OperationDef(f"_set_{name}", (ParamDef("value", tc),),
                             tc_void)
            )

    def find_operation(self, name: str) -> Optional[OperationDef]:
        cache = self._op_cache
        if cache is None:
            cache = self._op_cache = self._build_op_cache()
        return cache.get(name)

    def _build_op_cache(self) -> dict[str, OperationDef]:
        # Same precedence as the old recursive scan: own operations
        # first, then bases in declaration order, first match wins.
        cache = dict(self.operations)
        for base in self.bases:
            for name, odef in base._build_op_cache().items():
                cache.setdefault(name, odef)
        return cache

    def is_a(self, repo_id: str) -> bool:
        if self.repo_id == repo_id:
            return True
        return any(base.is_a(repo_id) for base in self.bases)

    def __repr__(self) -> str:
        return f"<InterfaceDef {self.name} ({self.repo_id})>"


class Servant:
    """Base class for objects incarnated under an object adapter.

    Subclasses set ``_interface`` (an :class:`InterfaceDef`) and define
    one method per operation.  Methods receive the decoded ``in``/
    ``inout`` arguments positionally; for operations with out/inout
    parameters they return ``(result, out1, out2, ...)``; otherwise just
    the result (or None for void).
    """

    _interface: InterfaceDef

    def interface(self) -> InterfaceDef:
        iface = getattr(self, "_interface", None)
        if iface is None:
            raise ConfigurationError(
                f"{type(self).__name__} does not declare _interface"
            )
        return iface


# -- user exception registry ---------------------------------------------------

_EXC_BY_REPO_ID: dict[str, tuple[type[UserException], TypeCode]] = {}


def register_exception(cls: type[UserException], tc: TypeCode) -> None:
    """Register a UserException subclass so replies can reconstruct it."""
    if tc.kind is not TCKind.EXCEPT:
        raise ConfigurationError(f"{tc!r} is not an exception TypeCode")
    if tuple(cls.FIELDS) != tuple(n for n, _ in tc.members):
        raise ConfigurationError(
            f"{cls.__name__}.FIELDS do not match TypeCode members"
        )
    _EXC_BY_REPO_ID[cls.REPO_ID] = (cls, tc)


def exception_class(repo_id: str) -> Optional[tuple[type[UserException], TypeCode]]:
    return _EXC_BY_REPO_ID.get(repo_id)


def make_exception_class(name: str, tc: TypeCode) -> type[UserException]:
    """Create (and register) a UserException subclass from an EXCEPT tc."""
    cls = type(name, (UserException,), {
        "REPO_ID": tc.repo_id,
        "FIELDS": tuple(n for n, _ in tc.members),
    })
    register_exception(cls, tc)
    return cls


# -- stubs ---------------------------------------------------------------------

class Stub:
    """Client-side proxy: one method per operation returning kernel Events."""

    def __init__(self, orb, ior: IOR, interface: InterfaceDef) -> None:
        self._orb = orb
        self._ior = ior
        self._iface = interface

    @property
    def ior(self) -> IOR:
        return self._ior

    def __getattr__(self, name: str):
        # Only called for attributes not found normally: operation lookup.
        odef = self._iface.find_operation(name)
        if odef is None:
            raise AttributeError(
                f"{self._iface.name} has no operation {name!r}"
            )

        def call(*args, _timeout: Optional[float] = None,
                 _meter: Optional[str] = None) -> Event:
            return self._orb.invoke(self._ior, odef, args,
                                    timeout=_timeout, meter=_meter)

        call.__name__ = name
        # Memoize on the instance so repeat calls skip __getattr__ and
        # the operation lookup entirely.
        self.__dict__[name] = call
        return call

    def __repr__(self) -> str:
        return f"<Stub {self._iface.name} -> {self._ior}>"

"""Object adapters (a pragmatic POA).

A :class:`POA` maps object keys to servants within one ORB.  Activation
returns the object's :class:`~repro.orb.ior.IOR`.  Servant activators
(lazy incarnation) are supported because the component container uses
them to activate component instances on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.orb.exceptions import OBJECT_NOT_EXIST
from repro.orb.ior import IOR
from repro.orb.model import Servant, Stub
from repro.util.errors import ConfigurationError
from repro.util.ids import IdGenerator

if TYPE_CHECKING:
    from repro.orb.core import ORB


class POA:
    """One object adapter: a namespace of activated servants."""

    def __init__(self, orb: ORB, name: str) -> None:
        self.orb = orb
        self.name = name
        self._servants: dict[str, Servant] = {}
        self._ids = IdGenerator()
        #: Optional lazy activator: key -> Servant (or None to reject).
        self.servant_activator: Optional[Callable[[str], Optional[Servant]]] = None

    # -- activation ----------------------------------------------------------
    def activate(self, servant: Servant, key: Optional[str] = None) -> IOR:
        """Activate *servant*; returns its IOR.

        With no explicit *key*, a fresh ``obj-N`` key is generated.
        """
        if key is None:
            key = self._ids.next("obj")
        if key in self._servants:
            raise ConfigurationError(
                f"object key {key!r} already active in adapter {self.name!r}"
            )
        iface = servant.interface()
        self._servants[key] = servant
        return IOR(repo_id=iface.repo_id, host_id=self.orb.host_id,
                   adapter=self.name, object_key=key)

    def deactivate(self, key: str) -> Servant:
        """Deactivate and return the servant at *key*."""
        try:
            servant = self._servants.pop(key)
        except KeyError:
            raise OBJECT_NOT_EXIST(
                f"no object {key!r} in adapter {self.name!r}"
            ) from None
        return servant

    def ior_for(self, key: str) -> IOR:
        servant = self._servants.get(key)
        if servant is None:
            raise OBJECT_NOT_EXIST(f"no object {key!r}")
        return IOR(repo_id=servant.interface().repo_id,
                   host_id=self.orb.host_id, adapter=self.name, object_key=key)

    # -- lookup ----------------------------------------------------------------
    def servant_for(self, key: str) -> Servant:
        servant = self._servants.get(key)
        if servant is None and self.servant_activator is not None:
            servant = self.servant_activator(key)
            if servant is not None:
                self._servants[key] = servant
        if servant is None:
            raise OBJECT_NOT_EXIST(
                f"no object {key!r} in adapter {self.name!r}"
            )
        return servant

    def is_active(self, key: str) -> bool:
        return key in self._servants

    # -- convenience -------------------------------------------------------------
    def serve(self, servant: Servant) -> Stub:
        """Activate *servant* under a generated key and return a local
        stub for it."""
        ior = self.activate(servant)
        return self.orb.stub(ior, servant.interface())

"""Runtime ports: the external communication points of an instance.

"Those external communication points are collectively called ports ...
there are two basic kinds of ports: interfaces and events" (§2.1.2).

- :class:`FacetPort` — a provided interface (servant + IOR).
- :class:`ReceptaclePort` — a used interface (holds the connected IOR).
- :class:`EventSourcePort` — emits events into a push channel.
- :class:`EventSinkPort` — consumes events from channels.

The :class:`PortSet` is reflective: CORBA-LC "does not restrict the set
of external properties of a component to be fixed and allows it to
change at run-time" (§2.1.2), so ports can be added and removed live and
listeners (the node's Component Registry) observe every mutation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.orb.core import ORB, Servant, Stub
from repro.orb.dii import GLOBAL_IFR
from repro.orb.ior import IOR
from repro.util.errors import ConfigurationError, ReproError


class PortError(ReproError):
    """Invalid port operation (unknown port, wrong kind, not connected)."""


class Port:
    """Common shape of all port kinds."""

    kind: str = "?"

    def __init__(self, name: str) -> None:
        self.name = name

    def describe(self) -> dict:
        return {"name": self.name, "kind": self.kind}


class FacetPort(Port):
    """A provided interface: the instance's servant, activated by the
    container, reachable via :attr:`ior`."""

    kind = "facet"

    def __init__(self, name: str, repo_id: str, servant: Servant,
                 ior: Optional[IOR] = None) -> None:
        super().__init__(name)
        self.repo_id = repo_id
        self.servant = servant
        self.ior = ior

    def describe(self) -> dict:
        d = super().describe()
        d["repo_id"] = self.repo_id
        d["ior"] = self.ior.to_string() if self.ior else ""
        return d


class ReceptaclePort(Port):
    """A used interface: holds the IOR this instance is wired to."""

    kind = "receptacle"

    def __init__(self, name: str, repo_id: str, optional: bool = False) -> None:
        super().__init__(name)
        self.repo_id = repo_id
        self.optional = optional
        self.peer: Optional[IOR] = None

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def connect(self, ior: IOR) -> None:
        if self.peer is not None:
            raise PortError(f"receptacle {self.name!r} already connected")
        self.peer = ior

    def disconnect(self) -> IOR:
        if self.peer is None:
            raise PortError(f"receptacle {self.name!r} not connected")
        peer, self.peer = self.peer, None
        return peer

    def stub(self, orb: ORB) -> Stub:
        """A typed stub for the connected peer."""
        if self.peer is None:
            raise PortError(f"receptacle {self.name!r} not connected")
        iface = GLOBAL_IFR.require(self.repo_id)
        return orb.stub(self.peer, iface)

    def describe(self) -> dict:
        d = super().describe()
        d["repo_id"] = self.repo_id
        d["optional"] = self.optional
        d["peer"] = self.peer.to_string() if self.peer else ""
        return d


class EventSourcePort(Port):
    """Emits events of one kind into the framework's push channel."""

    kind = "event-source"

    def __init__(self, name: str, event_kind: str,
                 channel: Optional[IOR] = None) -> None:
        super().__init__(name)
        self.event_kind = event_kind
        self.channel = channel
        self.emitted = 0

    def describe(self) -> dict:
        d = super().describe()
        d["event_kind"] = self.event_kind
        d["channel"] = self.channel.to_string() if self.channel else ""
        return d


class EventSinkPort(Port):
    """Consumes events; the container activates a PushConsumer servant
    whose IOR is subscribed to matching channels."""

    kind = "event-sink"

    def __init__(self, name: str, event_kind: str) -> None:
        super().__init__(name)
        self.event_kind = event_kind
        self.consumer_ior: Optional[IOR] = None
        self.subscriptions: list[IOR] = []
        self.received = 0

    def describe(self) -> dict:
        d = super().describe()
        d["event_kind"] = self.event_kind
        d["subscriptions"] = len(self.subscriptions)
        return d


PortListener = Callable[[str, Port], None]  # (action, port)


class PortSet:
    """The reflective, mutable collection of an instance's ports."""

    def __init__(self) -> None:
        self._ports: dict[str, Port] = {}
        self.listeners: list[PortListener] = []

    # -- mutation ---------------------------------------------------------
    def add(self, port: Port) -> Port:
        if port.name in self._ports:
            raise ConfigurationError(f"duplicate port name {port.name!r}")
        self._ports[port.name] = port
        self._notify("added", port)
        return port

    def remove(self, name: str) -> Port:
        try:
            port = self._ports.pop(name)
        except KeyError:
            raise PortError(f"no port {name!r}") from None
        self._notify("removed", port)
        return port

    def _notify(self, action: str, port: Port) -> None:
        for listener in list(self.listeners):
            listener(action, port)

    def changed(self, port_name: str) -> None:
        """Signal that an existing port's wiring changed (connections)."""
        port = self.get(port_name)
        self._notify("changed", port)

    # -- typed access -------------------------------------------------------
    def get(self, name: str) -> Port:
        try:
            return self._ports[name]
        except KeyError:
            raise PortError(f"no port {name!r}") from None

    def _typed(self, name: str, cls, kind: str):
        port = self.get(name)
        if not isinstance(port, cls):
            raise PortError(f"port {name!r} is {port.kind}, not {kind}")
        return port

    def facet(self, name: str) -> FacetPort:
        return self._typed(name, FacetPort, "facet")

    def receptacle(self, name: str) -> ReceptaclePort:
        return self._typed(name, ReceptaclePort, "receptacle")

    def event_source(self, name: str) -> EventSourcePort:
        return self._typed(name, EventSourcePort, "event-source")

    def event_sink(self, name: str) -> EventSinkPort:
        return self._typed(name, EventSinkPort, "event-sink")

    # -- views ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ports

    def __len__(self) -> int:
        return len(self._ports)

    def names(self) -> list[str]:
        return list(self._ports)

    def by_kind(self, kind: str) -> list[Port]:
        return [p for p in self._ports.values() if p.kind == kind]

    def facets(self) -> list[FacetPort]:
        return self.by_kind("facet")  # type: ignore[return-value]

    def receptacles(self) -> list[ReceptaclePort]:
        return self.by_kind("receptacle")  # type: ignore[return-value]

    def describe(self) -> list[dict]:
        return [p.describe() for p in self._ports.values()]

"""Per-node event broker: one push channel per event kind.

"For each event kind produced by a component, the framework opens a
push event channel.  Components can subscribe to this channel to
express its interest in the event kind" (§2.1.2).  Channels are created
lazily and live in the node's ``events`` adapter under the kind name,
so any node can address another node's channel for a kind directly.
"""

from __future__ import annotations

from repro.orb.ior import IOR
from repro.orb.services.events import (
    EVENT_CHANNEL_IFACE,
    EventChannelServant,
)

EVENTS_ADAPTER = "events"


class EventBroker:
    """Lazily-created event channels for one node."""

    def __init__(self, node) -> None:
        self.node = node
        self._channels: dict[str, EventChannelServant] = {}

    def channel(self, kind: str) -> EventChannelServant:
        servant = self._channels.get(kind)
        if servant is None:
            servant = EventChannelServant(self.node.orb)
            self.node.orb.adapter(EVENTS_ADAPTER).activate(servant, key=kind)
            self._channels[kind] = servant
        return servant

    def channel_ior(self, kind: str) -> IOR:
        self.channel(kind)
        return self.node.orb.adapter(EVENTS_ADAPTER).ior_for(kind)

    @staticmethod
    def channel_ior_on(host_id: str, kind: str) -> IOR:
        """Well-known IOR of *kind*'s channel on another host.

        The channel must have been (or will lazily be) created there;
        subscribing to a not-yet-created remote channel raises
        OBJECT_NOT_EXIST, which callers handle by creating instances
        before wiring events (assembly order guarantees this).
        """
        return IOR(EVENT_CHANNEL_IFACE.repo_id, host_id, EVENTS_ADAPTER, kind)

"""Common Object Services the component framework relies on:

- :mod:`repro.orb.services.events` — push-model event channels, the
  transport behind component event ports (§2.1.2: "for each event kind
  produced by a component, the framework opens a push event channel").
"""

from repro.orb.services.events import EventChannelServant, EVENT_CHANNEL_IFACE

__all__ = [
    "EventChannelServant",
    "EVENT_CHANNEL_IFACE",
]

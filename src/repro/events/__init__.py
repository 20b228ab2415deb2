"""Asynchronous event infrastructure: pub/sub bus, batching, fan-out.

Background dissemination that needs no request/reply semantics — the
federated registry's gossip rounds, and any high-rate event stream —
gets one asynchronous pipeline, the one C17 and C18 measure:

- :class:`~repro.events.bus.EventBus` — per-node topic pub/sub;
  ``publish`` never blocks, every subscription is a batch window;
- :class:`~repro.events.batch_writer.BatchWriter` — the size/age-
  threshold window itself, bounded and drop-oldest;
- :class:`~repro.events.remote.FanoutForwarder` — a flushed window
  becomes one marshal and one oneway frame per sink (stacking on the
  ORB's GIOP pipelining underneath).

The paper's per-kind component event channels (§2.1.2) are a separate,
CORBA-visible plane: :mod:`repro.orb.services.events` and
:mod:`repro.node.events`.
"""

from repro.events.batch_writer import BatchWriter
from repro.events.bus import Event, EventBus, Subscription
from repro.events.remote import FanoutForwarder

__all__ = [
    "BatchWriter",
    "Event",
    "EventBus",
    "FanoutForwarder",
    "Subscription",
]

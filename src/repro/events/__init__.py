"""Batched event fan-out: the pipeline C17 and the ``event_fanout``
spine workload measure.

A high-rate event stream fanned out to many sinks needs no
request/reply semantics; these three pieces turn it into amortized
transmissions:

- :class:`~repro.events.bus.EventBus` — topic pub/sub; ``publish``
  never blocks, every subscription is a batch window;
- :class:`~repro.events.batch_writer.BatchWriter` — the size/age-
  threshold window itself, bounded by its size threshold;
- :class:`~repro.events.remote.FanoutForwarder` — a flushed window
  becomes one marshal and one oneway frame per sink (stacking on the
  ORB's GIOP pipelining underneath).

No service of the running system publishes here.  Its one event plane
is the paper's per-kind component event channels (§2.1.2):
:mod:`repro.orb.services.events` and :mod:`repro.node.events`.
"""

from repro.events.batch_writer import BatchWriter
from repro.events.bus import Event, EventBus
from repro.events.remote import FanoutForwarder

__all__ = [
    "BatchWriter",
    "Event",
    "EventBus",
    "FanoutForwarder",
]

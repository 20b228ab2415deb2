"""GIOP request pipelining: the client channels of a pipelining ORB.

An ORB built with ``pipeline_window`` sends its oneways through one
:class:`PipelinedChannels`: sends sharing a destination within the
window leave as one MSG_MULTI transmission (one header, one link
charge).  An ORB built without it calls ``network.send`` directly.
"""

from __future__ import annotations

from repro.obs import names
from repro.orb import giop
from repro.sim.kernel import Environment, Timeout
from repro.sim.network import Network
from repro.util.errors import ConfigurationError

#: Flush thresholds: a channel holding this many frames or bytes is
#: sent at once instead of waiting out the window.
PIPELINE_MAX_FRAMES = 64
PIPELINE_MAX_BYTES = 16384


class _PipeChannel:
    """Per-destination buffer of encoded oneway frames awaiting a flush.

    ``token`` versions the armed flush timer: arming bumps it and any
    timer carrying a stale token is a no-op, so an early flush (size or
    byte threshold) can never be followed by a spurious empty flush.
    """

    __slots__ = ("frames", "nbytes", "token", "armed")

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        self.nbytes = 0
        self.token = 0
        self.armed = False


class PipelinedChannels:
    """One host's outgoing oneway buffers, one per destination."""

    def __init__(self, env: Environment, network: Network, host_id: str,
                 window: float) -> None:
        if window < 0:
            raise ConfigurationError(
                f"pipeline window must be >= 0, got {window}"
            )
        self.env = env
        self.network = network
        self.host_id = host_id
        self.metrics = network.metrics
        self.window = window
        self.max_frames = min(PIPELINE_MAX_FRAMES, giop.MAX_MULTI_FRAMES)
        self.max_bytes = PIPELINE_MAX_BYTES
        self._channels: dict[str, _PipeChannel] = {}

    def send(self, dst: str, wire: bytes) -> None:
        """Buffer one encoded oneway for *dst*; flush on thresholds.

        Frames accumulate until ``max_frames`` / ``max_bytes`` force an
        immediate flush, or the ``window`` age timer fires — whichever
        comes first.  Send order is preserved: frames are appended here
        and unpacked in order by the receiving ORB.
        """
        chan = self._channels.get(dst)
        if chan is None:
            chan = self._channels[dst] = _PipeChannel()
        chan.frames.append(wire)
        chan.nbytes += len(wire)
        if (len(chan.frames) >= self.max_frames
                or chan.nbytes >= self.max_bytes):
            self._flush_channel(dst, chan)
        elif not chan.armed:
            chan.armed = True
            chan.token += 1
            Timeout(self.env, self.window,
                    (dst, chan.token)).callbacks.append(self._on_timer)

    def _on_timer(self, ev) -> None:
        dst, token = ev._value
        chan = self._channels.get(dst)
        if chan is None or chan.token != token:
            return  # superseded by an earlier threshold flush
        self._flush_channel(dst, chan)

    def _flush_channel(self, dst: str, chan: _PipeChannel) -> None:
        frames = chan.frames
        if not frames:
            chan.armed = False
            return
        chan.frames = []
        chan.nbytes = 0
        chan.armed = False
        chan.token += 1  # invalidate any armed window timer
        if len(frames) == 1:
            wire = frames[0]
            self.network.send(self.host_id, dst, "giop", wire, len(wire))
            return
        wire = giop.encode_multi(frames)
        self.metrics.counter(names.ORB_PIPELINE_FLUSHES).inc()
        self.metrics.counter(names.ORB_PIPELINE_FRAMES).inc(len(frames))
        self.network.send(self.host_id, dst, "giop", wire, len(wire),
                          frames=len(frames))

    def flush(self) -> None:
        """Force-flush every buffered channel now."""
        for dst, chan in self._channels.items():
            self._flush_channel(dst, chan)

    def clear(self) -> None:
        """Drop every buffered frame: a crashed sender must not flush
        stale oneways after restart."""
        for chan in self._channels.values():
            chan.frames.clear()
            chan.nbytes = 0
            chan.armed = False
            chan.token += 1

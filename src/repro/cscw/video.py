"""The motivating video pipeline (§2.4.3, §3.1).

"A component decoding a MPEG video stream would work much faster if it
is installed locally."

Three stages:

- **StreamSource** (pinned): serves encoded frames — small on the wire.
- **VideoDecoder** (mobile): pulls encoded frames, burns CPU decoding,
  and blits the *decoded* pixels (``expansion`` × larger) to a Display.
- **Display** (pinned, :mod:`repro.cscw.display`): the viewer's screen.

Placement decides which of the two flows crosses the network: decoder
next to the display ships only the small encoded frames; decoder
anywhere else ships the fat decoded pixels.  Benchmark C6 measures
exactly that difference, before and after migrating the decoder.
"""

from __future__ import annotations

from repro.components.executor import ComponentExecutor, StatefulMixin
from repro.cscw.display import DISPLAY_IFACE
from repro.idl import compile_idl
from repro.orb.core import Servant
from repro.orb.exceptions import SystemException
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.kernel import Interrupt
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

_STREAM_IDL = """
#pragma prefix "corbalc"
module Cscw {
  interface StreamSource {
    // One encoded frame; sequential frame numbers.
    sequence<octet> next_frame(in long frame_no);
    double frame_rate();
  };
};
"""

STREAM_SOURCE_IFACE = compile_idl(_STREAM_IDL).Cscw.StreamSource

#: Synthetic stream shape (roughly VCD-class video).
ENCODED_FRAME_BYTES = 20_000
DECODE_EXPANSION = 8           # decoded pixels / encoded bytes
FRAME_RATE = 10.0              # frames per second
DECODE_COST = 8.0              # work units per frame


class _StreamFacet(Servant):
    _interface = STREAM_SOURCE_IFACE

    def __init__(self, executor: "StreamSourceExecutor") -> None:
        self._executor = executor

    def next_frame(self, frame_no: int) -> bytes:
        self._executor.served += 1
        return synthetic_payload(self._executor.frame_bytes,
                                 seed=frame_no % 64,
                                 compressibility=0.3)

    def frame_rate(self) -> float:
        return self._executor.fps


class StreamSourceExecutor(ComponentExecutor):
    """Serves the encoded stream; pinned next to the capture hardware."""

    def __init__(self) -> None:
        super().__init__()
        self.frame_bytes = ENCODED_FRAME_BYTES
        self.fps = FRAME_RATE
        self.served = 0

    def create_facet(self, port_name: str) -> Servant:
        assert port_name == "stream"
        return _StreamFacet(self)


def stream_source_package() -> ComponentPackage:
    entry = "cscw.streamsource"
    GLOBAL_BINARIES.register(entry, StreamSourceExecutor)
    soft = SoftwareDescriptor(
        name="StreamSource", version=Version.parse("1.0.0"), vendor="cscw",
        abstract="Encoded media stream server (capture side).",
        mobility="pinned",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/source")],
    )
    comp = ComponentTypeDescriptor(
        name="StreamSource",
        provides=[PortDecl("stream", STREAM_SOURCE_IFACE.repo_id)],
        qos=QoSSpec(cpu_units=20.0, memory_mb=16.0,
                    bandwidth_bps=ENCODED_FRAME_BYTES * FRAME_RATE),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("stream", _STREAM_IDL)
    builder.add_binary("bin/any/source", synthetic_payload(15_000, seed=24))
    return ComponentPackage(builder.build())


class VideoDecoderExecutor(StatefulMixin, ComponentExecutor):
    """Pulls, decodes and blits frames while active.

    The decode loop survives migration: frame position is part of the
    externalized state, and activation restarts the loop wherever the
    instance lands.
    """

    STATE_ATTRS = ("frame_no", "decoded")

    def __init__(self) -> None:
        super().__init__()
        self.frame_no = 0
        self.decoded = 0
        self.stalled = 0

    def on_activate(self) -> None:
        self.context.spawn(self._decode_loop())

    def _decode_loop(self):
        ctx = self.context
        try:
            while True:
                source = ctx.connection("source")
                display = ctx.connection("display")
                if source is None or display is None:
                    yield ctx.schedule(0.5)
                    continue
                period = 1.0 / FRAME_RATE
                started = ctx.now()
                try:
                    encoded = yield source.next_frame(self.frame_no,
                                                      _timeout=5.0)
                except SystemException:
                    self.stalled += 1
                    yield ctx.schedule(period)
                    continue
                yield ctx.charge_cpu(DECODE_COST)
                pixels = encoded * DECODE_EXPANSION
                try:
                    yield display.blit(
                        f"video.{ctx.instance_id}", pixels, _timeout=5.0)
                except SystemException:
                    self.stalled += 1
                self.frame_no += 1
                self.decoded += 1
                # Pace to the stream's frame rate.
                elapsed = ctx.now() - started
                if elapsed < period:
                    yield ctx.schedule(period - elapsed)
        except Interrupt:
            return

    def create_facet(self, port_name: str) -> Servant:  # pragma: no cover
        raise AssertionError("VideoDecoder provides no facets")


def video_decoder_package() -> ComponentPackage:
    entry = "cscw.videodecoder"
    GLOBAL_BINARIES.register(entry, VideoDecoderExecutor)
    soft = SoftwareDescriptor(
        name="VideoDecoder", version=Version.parse("1.0.0"), vendor="cscw",
        abstract="Mobile stream decoder (the paper's MPEG example).",
        mobility="mobile", replication="stateless",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/decoder")],
    )
    comp = ComponentTypeDescriptor(
        name="VideoDecoder",
        uses=[PortDecl("source", STREAM_SOURCE_IFACE.repo_id),
              PortDecl("display", DISPLAY_IFACE.repo_id)],
        qos=QoSSpec(cpu_units=DECODE_COST * FRAME_RATE, memory_mb=32.0,
                    bandwidth_bps=ENCODED_FRAME_BYTES * FRAME_RATE
                    * DECODE_EXPANSION),
    )
    builder = PackageBuilder(soft, comp)
    builder.add_idl("stream", _STREAM_IDL)
    builder.add_binary("bin/any/decoder",
                       synthetic_payload(25_000, seed=25))
    return ComponentPackage(builder.build())

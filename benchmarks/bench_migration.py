"""C6 — migrating the bandwidth-heavy decoder (§2.4.3, §3.1).

"It allows bandwidth-limited multimedia components (such as video
stream decoding) to be migrated and installed locally to minimize
network load."  And: "a component decoding a MPEG video stream would
work much faster if it is installed locally."

We run the stream pipeline with the decoder at the camera host vs.
migrated next to the viewer's display, over a WAN and over a LAN — the
LAN row shows the crossover: when bandwidth is plentiful, placement
barely matters.
"""

from _harness import Table, report
from repro.container.migration import MigrationEngine
from repro.cscw import (
    display_package,
    stream_source_package,
    video_decoder_package,
)
from repro.cscw.video import FRAME_RATE
from repro.sim.topology import DESKTOP, LAN, SERVER, WAN, Topology
from repro.testing import SimRig

WINDOW = 12.0


def run(link_class, migrate: bool):
    topo = Topology()
    topo.add_host("camhost", SERVER)
    topo.add_host("viewer", DESKTOP)
    topo.add_link("camhost", "viewer", link_class)
    rig = SimRig(topo)
    cam, viewer = rig.node("camhost"), rig.node("viewer")
    cam.install_package(stream_source_package())
    cam.install_package(video_decoder_package())
    viewer.install_package(display_package())
    source = cam.container.create_instance("StreamSource")
    display = viewer.container.create_instance("Display")
    decoder = cam.container.create_instance("VideoDecoder")
    cam.container.connect(decoder.instance_id, "source",
                          source.ports.facet("stream").ior)
    cam.container.connect(decoder.instance_id, "display",
                          display.ports.facet("graphics").ior)
    if migrate:
        rig.run(until=MigrationEngine(cam).migrate(
            decoder.instance_id, "viewer"))
    t0, f0 = rig.env.now, display.executor.drawn
    b0 = rig.metrics.get("net.bytes")
    rig.run(until=t0 + WINDOW)
    fps = (display.executor.drawn - f0) / WINDOW
    rate = (rig.metrics.get("net.bytes") - b0) / WINDOW
    return fps, rate


def migrate_once(preinstalled: bool):
    """One migration over a WAN: (downtime, bytes moved)."""
    topo = Topology()
    topo.add_host("a", SERVER)
    topo.add_host("b", DESKTOP)
    topo.add_link("a", "b", WAN)
    rig = SimRig(topo)
    rig.node("a").install_package(video_decoder_package())
    if preinstalled:
        rig.node("b").install_package(video_decoder_package())
    inst = rig.node("a").container.create_instance("VideoDecoder")
    t0 = rig.env.now
    b0 = rig.metrics.get("net.bytes")
    rig.run(until=MigrationEngine(rig.node("a")).migrate(
        inst.instance_id, "b"))
    return rig.env.now - t0, rig.metrics.get("net.bytes") - b0


def experiment():
    """Run C6 once, assert its claims, return the placement table and
    the migration-cost table (C6b)."""
    rows, results = [], {}
    for link, link_name in ((WAN, "WAN 10 Mb/s"), (LAN, "LAN 100 Mb/s")):
        for migrate, place in ((False, "at camera (remote)"),
                               (True, "migrated to viewer")):
            fps, rate = run(link, migrate)
            results[(link_name, migrate)] = (fps, rate)
            rows.append([link_name, place, f"{fps:.1f} / {FRAME_RATE:.0f}",
                         f"{rate/1e3:.0f} kB/s"])
    wan_remote = results[("WAN 10 Mb/s", False)]
    wan_local = results[("WAN 10 Mb/s", True)]
    lan_remote = results[("LAN 100 Mb/s", False)]
    assert wan_local[0] > 1.8 * wan_remote[0]     # much faster
    assert wan_local[1] < wan_remote[1] / 3       # much cheaper
    assert lan_remote[0] >= 0.9 * FRAME_RATE      # LAN: remote is fine
    cold_time, cold_bytes = migrate_once(False)
    warm_time, warm_bytes = migrate_once(True)
    assert warm_bytes < cold_bytes / 3
    return [
        Table("C6: video decoder placement (12s of streaming)",
              ["link", "decoder placement", "fps / target", "link traffic"],
              rows,
              note="over the WAN the migrated decoder restores full frame "
                   "rate at ~1/4 the bytes; over a LAN placement is moot "
                   "(the crossover)"),
        Table("C6b: cost of one migration over a WAN",
              ["target state", "downtime (sim)", "bytes moved"], [
                  ["binary not installed (package ships)",
                   f"{cold_time*1000:.0f} ms", f"{cold_bytes:.0f}"],
                  ["binary already installed (state only)",
                   f"{warm_time*1000:.0f} ms", f"{warm_bytes:.0f}"],
              ]),
    ]


def test_decoder_placement(capsys):
    for table in experiment():
        report(capsys, *table)

"""E2 — Figure 2: the CSCW application model, measured.

A stroke travels: user -> Surface facet -> stroke event -> GUI part ->
Display.  We measure stroke-to-paint latency and wire bytes per stroke
for the two placements Fig. 2 allows: GUI part co-located with the
user's display vs. GUI part remote (thin-client mode).
"""

from _harness import Table, report
from repro.cscw import (
    SURFACE_IFACE,
    display_package,
    gui_part_package,
    whiteboard_package,
)
from repro.sim.topology import DESKTOP, LAN, SERVER, Topology
from repro.testing import SimRig


def build(gui_host: str):
    topo = Topology()
    topo.add_host("server", SERVER)
    topo.add_host("user", DESKTOP)
    topo.add_link("server", "user", LAN)
    rig = SimRig(topo)
    server, user = rig.node("server"), rig.node("user")
    server.install_package(whiteboard_package())
    server.install_package(gui_part_package())
    user.install_package(display_package())

    board = server.container.create_instance("Whiteboard")
    display = user.container.create_instance("Display")
    owner = rig.node(gui_host)
    if gui_host != "server":
        user.install_package(gui_part_package())
    gui = owner.container.create_instance("BoardGui")
    owner.container.connect(gui.instance_id, "display",
                            display.ports.facet("graphics").ior)
    # subscribe the GUI to the board's stroke channel
    from repro.node.events import EventBroker
    owner.container.subscribe_sink(
        gui, "board", EventBroker.channel_ior_on("server", "cscw.stroke"))
    surface = user.orb.stub(board.ports.facet("surface").ior,
                            SURFACE_IFACE)
    return rig, surface, display


def run_strokes(gui_host: str, n: int = 20):
    rig, surface, display = build(gui_host)
    bytes0 = rig.metrics.get("net.bytes")
    t0 = rig.env.now
    for i in range(n):
        rig.node("user").orb.sync(surface.add_stroke({
            "author": "user", "x0": float(i), "y0": 0.0,
            "x1": float(i), "y1": 1.0, "color": "black"}))
    # wait for all paints to land
    deadline = rig.env.now + 5.0
    while display.executor.drawn < n and rig.env.now < deadline:
        rig.run(until=rig.env.now + 0.05)
    latency = (rig.env.now - t0) / n
    bytes_per_stroke = (rig.metrics.get("net.bytes") - bytes0) / n
    return display.executor.drawn, latency, bytes_per_stroke


def experiment():
    """Run E2 once and return its table."""
    rows = []
    for gui_host, label in (("user", "GUI local to display"),
                            ("server", "GUI remote (thin client)")):
        drawn, latency, bps = run_strokes(gui_host)
        rows.append([label, str(drawn), f"{latency*1000:.2f} ms",
                     f"{bps:.0f} B"])
    return [Table("E2: Fig.2 stroke -> event -> GUI -> display",
                  ["placement", "strokes painted", "latency/stroke",
                   "wire B/stroke"], rows,
                  note="both placements paint everything; thin client "
                       "pays extra wire hops, which is fine for a PDA "
                       "(sec. 3.1)")]


def test_fig2_stroke_pipeline(capsys):
    for table in experiment():
        report(capsys, *table)

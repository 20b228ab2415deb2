"""cscw_session — the paper's Figure-2 whiteboard on the full world.

ROADMAP's canonical scenario: ``chaos.scenario.build_world(seed)`` (3x3
clustered WAN, federated registry, supervised 4-instance assembly,
fenced replica group, observability on, the three retry/breaker chaos
client loops as background, no faults).  The Whiteboard model lives on
``c0h0``; each of the six non-gateway hosts has a user with a
benchmark-owned recording Display and a ``BoardGui`` part subscribed
to the whiteboard's ``cscw.stroke`` channel.  Closed loop, one stroke
outstanding, users round-robin; an op is one ``add_stroke`` and is
complete when the reply is back *and* all six displays painted it.

Chosen because it is the paper's application and the only workload
where the ``any``/TypeCode interpreter tier, the per-kind push
channels, the obs interceptors and the WAN all do real work.
"""

from __future__ import annotations

import time

from repro.chaos.scenario import build_world
from repro.components.executor import ComponentExecutor
from repro.cscw import SURFACE_IFACE, gui_part_package, whiteboard_package
from repro.cscw.display import DISPLAY_IFACE
from repro.deployment import Deployer
from repro.node.events import EventBroker
from repro.orb.core import Servant
from repro.orb.services.events import PUSH_CONSUMER_IFACE
from repro.packaging.binaries import GLOBAL_BINARIES, synthetic_payload
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.rng import derived_stream
from repro.sim.topology import SERVER, clustered
from repro.xmlmeta.descriptors import (
    ComponentTypeDescriptor,
    ImplementationDescriptor,
    PortDecl,
    QoSSpec,
    SoftwareDescriptor,
)
from repro.xmlmeta.versions import Version

from spine.measure import chunk_bounds
from spine.workloads import Workload

BOARD_HOST = "c0h0"
#: an op that has not painted everywhere by then counts as failed.
OP_DEADLINE = 5.0
SETTLE = 2.0

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
PALETTE = 8


class _RecordingFacet(Servant):
    _interface = DISPLAY_IFACE

    def __init__(self, executor: "RecordingDisplay") -> None:
        self._executor = executor

    def draw(self, window: str, primitive: str) -> None:
        self._executor.painted.append(primitive)
        self._executor.on_paint()


class RecordingDisplay(ComponentExecutor):
    """Benchmark-owned Display: keeps every primitive in paint order
    and tells the driver when one lands."""

    #: set by the workload before instances are created.
    on_paint = staticmethod(lambda: None)

    def __init__(self) -> None:
        super().__init__()
        self.painted: list = []

    def create_facet(self, port_name: str) -> Servant:
        return _RecordingFacet(self)


def recording_display_package(executor_cls) -> ComponentPackage:
    entry = "spine.display"
    # One executor class per pass (it is bound to that pass's driver),
    # so a second pass in the same process replaces the entry.
    GLOBAL_BINARIES.register(entry, executor_cls, replace=True)
    soft = SoftwareDescriptor(
        name="SpineDisplay", version=Version.parse("1.0.0"),
        vendor="spine", abstract="Recording display for the benchmark.",
        mobility="pinned",
        implementations=[ImplementationDescriptor(
            "*", "*", "*", entry, "bin/any/display")])
    comp = ComponentTypeDescriptor(
        name="SpineDisplay",
        provides=[PortDecl("graphics", DISPLAY_IFACE.repo_id)],
        qos=QoSSpec(cpu_units=5.0, memory_mb=2.0),
        lifecycle="service")
    builder = PackageBuilder(soft, comp)
    builder.add_binary("bin/any/display", synthetic_payload(3_000, seed=21))
    return ComponentPackage(builder.build())


def make_strokes(seed: int, users: list, count: int) -> list:
    """Strokes with seeded coordinates and a seeded palette: colour
    names of 3-24 letters, so the stroke's wire size — and with it the
    latency distribution — is a property of the seed."""
    rng = derived_stream("spine.cscw_session", seed)
    palette = ["".join(_LETTERS[int(k)] for k in
                       rng.integers(0, len(_LETTERS), int(n)))
               for n in rng.integers(3, 25, PALETTE)]
    coords = rng.uniform(0.0, 1024.0, size=(count, 4))
    colors = rng.integers(0, PALETTE, size=count)
    return [{"author": users[i % len(users)],
             "x0": float(coords[i, 0]), "y0": float(coords[i, 1]),
             "x1": float(coords[i, 2]), "y1": float(coords[i, 3]),
             "color": palette[int(colors[i])]}
            for i in range(count)]


def expected_primitive(stroke: dict) -> str:
    """What a wireframe ``BoardGui`` part paints for *stroke*."""
    return (f"wireframe:{stroke['color']} "
            f"({stroke['x0']},{stroke['y0']})->"
            f"({stroke['x1']},{stroke['y1']})")


class CscwSession(Workload):
    name = "cscw_session"
    rate = 440.0

    def setup(self) -> None:
        tracer = self.tracer
        # Span round Deployer.deploy from outside: build_world makes the
        # call, so the class attribute is wrapped for the set-up only.
        deploy = Deployer.deploy
        timing = {}

        def timed_deploy(dep, assembly):
            timing["start"] = time.perf_counter()
            event = deploy(dep, assembly)
            event.callbacks.append(
                lambda _ev: timing.setdefault("end", time.perf_counter()))
            return event

        Deployer.deploy = timed_deploy
        try:
            with tracer.span("driver|build_world"):
                world = build_world(self.seed)
        finally:
            Deployer.deploy = deploy
        self.deploy_wall_s = timing["end"] - timing["start"]
        self.world = world
        rig = world.rig
        self.attach(rig.env, rig.network)
        self.users = [h for h in rig.topology.host_ids()
                      if not h.endswith("h0")]
        self.strokes = make_strokes(self.seed, self.users,
                                    self.warm_ops + self.ops)

        board_node = rig.node(BOARD_HOST)
        board_node.install_package(whiteboard_package())
        board = board_node.container.create_instance("Whiteboard")
        surface = board.ports.facet("surface").ior

        display_cls = type("SpineRecordingDisplay", (RecordingDisplay,),
                           {"on_paint": staticmethod(self._on_paint)})
        display_pkg = recording_display_package(display_cls)
        gui_pkg = gui_part_package()
        channel = EventBroker.channel_ior_on(BOARD_HOST, "cscw.stroke")
        self.displays = []
        self.stubs = []
        for user in self.users:
            node = rig.node(user)
            node.install_package(display_pkg)
            node.install_package(gui_pkg)
            display = node.container.create_instance("SpineDisplay")
            gui = node.container.create_instance("BoardGui")
            node.container.connect(gui.instance_id, "display",
                                   display.ports.facet("graphics").ior)
            node.container.subscribe_sink(gui, "board", channel)
            self.displays.append(display.executor)
            self.stubs.append((node.orb,
                               node.orb.stub(surface, SURFACE_IFACE)))
        rig.run(until=rig.env.now + SETTLE)
        self._paints_left = 0
        self._all_painted = None
        self._clients_base = (0, 0)

    @staticmethod
    def topology():
        return clustered(3, 3, profile=SERVER, backbone="chords")

    @staticmethod
    def operations() -> dict:
        return {
            "add_stroke": SURFACE_IFACE.operations["add_stroke"],
            "draw": DISPLAY_IFACE.operations["draw"],
            # EventChannel.push and PushConsumer.push share one
            # signature: a single `any`.
            "push": PUSH_CONSUMER_IFACE.operations["push"],
        }

    def obs_spans(self) -> int:
        return len(self.world.rig.obs.tracer.spans)

    # -- driving -----------------------------------------------------------
    def _on_paint(self) -> None:
        self._paints_left -= 1
        if self._paints_left == 0:
            self._all_painted.succeed(None)

    def _stroke(self, i: int, record) -> None:
        env = self.env
        tracer = self.tracer
        orb, stub = self.stubs[i % len(self.stubs)]
        t_wall = time.perf_counter()
        t_sim = env.now
        self._paints_left = len(self.displays)
        self._all_painted = env.event()
        self.attempted += 1
        try:
            if tracer.on:
                tracer.op = i
            reply = stub.add_stroke(self.strokes[i])
            done = env.all_of([reply, self._all_painted])
            guard = env.any_of([done, env.timeout(OP_DEADLINE)])
            if tracer.on:
                with tracer.span("driver|orb.sync"):
                    orb.sync(guard)
            else:
                orb.sync(guard)
        except Exception:
            self.failed += 1
            return
        if not done.triggered:
            self.failed += 1
            return
        if record is not None:
            self.latencies.append(env.now - t_sim)
            record.append(time.perf_counter() - t_wall)

    def warmup(self) -> None:
        for i in range(self.warm_ops):
            self._stroke(i, None)
        self.attempted = self.failed = 0
        self._clients_base = (self.world.client_ok,
                              self.world.client_errors)

    def run(self, window) -> None:
        base = self.warm_ops
        window.begin()
        for lo, hi in chunk_bounds(self.ops):
            for i in range(base + lo, base + hi):
                self._stroke(i, window.op_walls)
            window.chunk_done()
        window.finish()
        # The background clients' calls count in both terms.
        ok = self.world.client_ok - self._clients_base[0]
        errors = self.world.client_errors - self._clients_base[1]
        self.attempted += ok + errors
        self.failed += errors

    def verify(self) -> list:
        problems = []
        expected = [expected_primitive(s) for s in self.strokes]
        for user, display in zip(self.users, self.displays):
            if display.painted != expected:
                problems.append(
                    f"display on {user}: {len(display.painted)} primitives "
                    f"painted, expected {len(expected)} in submit order")
        orb, stub = self.stubs[0]
        revision = orb.sync(stub.revision())
        if revision != len(self.strokes):
            problems.append(f"Surface.revision() = {revision}, expected "
                            f"{len(self.strokes)}")
        return problems

"""The seams of the ORB split: layering, and the oneway merge.

``core.py`` assembles the stages; nothing below it may reach back up.
And ``send_oneway`` is the one-target case of ``send_oneway_fanout``:
the two must be indistinguishable on the wire and to every observer.
"""

import ast
from pathlib import Path

import pytest

import repro.orb
from repro.orb.core import InterfaceDef, ORB, op
from repro.orb.ior import IOR
from repro.orb.typecodes import tc_long, tc_string
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.sim.topology import star

ORB_DIR = Path(repro.orb.__file__).resolve().parent


def runtime_imports(path: Path) -> set:
    """Modules *path* imports when it runs, at any depth: everything
    but the body of an ``if TYPE_CHECKING:`` block."""
    found = set()

    def visit(node):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_only_the_package_init_imports_core():
    importers = sorted(path.name for path in ORB_DIR.glob("*.py")
                       if "repro.orb.core" in runtime_imports(path))
    assert importers == ["__init__.py"]


def test_the_interface_model_sits_below_the_runtime():
    above = {f"repro.orb.{name}"
             for name in ("core", "listener", "channels", "poa")}
    assert runtime_imports(ORB_DIR / "model.py") & above == set()


# -- send_oneway is send_oneway_fanout of one ---------------------------------

IFACE = InterfaceDef("IDL:test/Sink:1.0", "Sink", operations=[
    op("note", [("x", tc_long), ("s", tc_string)], oneway=True),
])
NOTE = IFACE.operations["note"]


class Recorder:
    """Client interceptor recording every hook call it sees."""

    def __init__(self):
        self.calls = []

    def send_request(self, info):
        info.service_context.append((7, b"ctx"))
        self.calls.append(("send_request", info.request_id, info.oneway,
                           info.meter, info.ior.host_id))

    def receive_reply(self, info):
        self.calls.append(("receive_reply", info.request_id,
                           info.request_bytes, info.end))

    def receive_exception(self, info, exc):
        self.calls.append(("receive_exception", info.request_id))


def observe(send, pipeline_window):
    """What *send* (three oneways, one flush) leaves behind."""
    env = Environment()
    net = Network(env, star(2), rngs=RngRegistry(3))
    client = ORB(env, net, "h1", pipeline_window=pipeline_window)
    recorder = Recorder()
    client.add_client_interceptor(recorder)
    wires = []
    net.interface("h0").bind(
        "giop", lambda msg: wires.append((env.now, bytes(msg.payload))))
    ior = IOR(IFACE.repo_id, "h0", "root", "sink")
    returned = [send(client, ior, (i, "x" * i)) for i in range(3)]
    env.run(until=1.0)
    return {"returned": returned, "wires": wires,
            "counters": net.metrics.counters(), "hooks": recorder.calls}


@pytest.mark.parametrize("pipeline_window", [None, 0.01])
def test_send_oneway_is_the_one_target_fanout(pipeline_window):
    single = observe(
        lambda orb, ior, args: orb.send_oneway(ior, NOTE, args, meter="m"),
        pipeline_window)
    fanout = observe(
        lambda orb, ior, args: orb.send_oneway_fanout(
            [ior], NOTE, args, meter="m"),
        pipeline_window)
    assert single == fanout
    assert single["counters"]["orb.oneways"] == 3
    assert single["counters"]["m.msgs"] == 3
    assert len(single["wires"]) == (3 if pipeline_window is None else 1)
    assert [call[0] for call in single["hooks"]] == \
        ["send_request", "receive_reply"] * 3

"""Corrupt externalized-state snapshots must never kill the supervisor.

Found by the chaos harness (wire_storm fault): link-level corruption
bit-flipped a ``get_state`` reply in flight; ``pickle.loads`` blew up
inside the supervisor's checkpoint pass and took the whole control
loop down with it.  State blobs are opaque octets on the wire — a bad
snapshot is an *expected* input, not an internal error.

``loads_state`` now raises :class:`StateDecodeError`; the supervisor
counts the corrupt snapshot and keeps its previous good checkpoint,
and a ``set_state`` with garbage fails cleanly as an ``AgentError``.
"""

import pytest

from repro.container.agent import (
    AgentError,
    ContainerAgentServant,
    StateDecodeError,
    dumps_state,
    loads_state,
)
from repro.deployment import Deployer, RuntimePlanner
from repro.sim.topology import SERVER, star
from repro.testing import SimRig, counter_package
from repro.util.errors import ValidationError
from repro.xmlmeta.descriptors import AssemblyDescriptor, AssemblyInstance
from tests.supervised import supervise


class TestStateCodec:
    def test_garbage_bytes_raise_decode_error(self):
        with pytest.raises(StateDecodeError):
            loads_state(b"\x00\xffnot a pickle")

    def test_truncated_snapshot_raises_decode_error(self):
        good = dumps_state({"count": 3})
        with pytest.raises(StateDecodeError):
            loads_state(good[: len(good) // 2])

    def test_bitflipped_snapshot_never_escapes_as_raw_error(self):
        good = bytearray(dumps_state({"count": 3, "peer": "c0h1"}))
        for i in range(len(good)):
            flipped = bytes(good[:i] + bytearray([good[i] ^ 0x10])
                            + good[i + 1:])
            try:
                state = loads_state(flipped)
            except StateDecodeError:
                continue
            assert isinstance(state, dict)

    def test_non_dict_payload_rejected(self):
        import pickle
        with pytest.raises(StateDecodeError):
            loads_state(pickle.dumps(["not", "a", "dict"]))

    def test_decode_error_is_validation_error(self):
        assert issubclass(StateDecodeError, ValidationError)


def checkpointing_rig(seed=41):
    rig = SimRig(star(3, leaf_profile=SERVER), seed=seed)
    rig.node("hub").install_package(counter_package(cpu_units=50.0))
    dep = Deployer(rig.nodes, RuntimePlanner(), coordinator_host="hub")
    app = rig.run(until=dep.deploy(AssemblyDescriptor(
        name="app",
        instances=[AssemblyInstance("i0", "Counter"),
                   AssemblyInstance("i1", "Counter")],
        connections=[])))
    sup = supervise(rig, dep, interval=1000.0)
    sup.stop()
    return rig, dep, app, sup


class TestSupervisorSurvivesCorruption:
    def test_corrupt_snapshot_keeps_previous_checkpoint(self, monkeypatch):
        rig, dep, app, sup = checkpointing_rig()
        rig.run(until=sup.run_once())       # seed good checkpoints
        iid = app.instance_id("i0")
        assert iid in sup.checkpoints
        good = dict(sup.checkpoints[iid])

        real = ContainerAgentServant.get_state

        def corrupting(self, instance_id):
            data = real(self, instance_id)
            return data[: len(data) // 2]   # truncated in flight

        monkeypatch.setattr(ContainerAgentServant, "get_state",
                            corrupting)
        # Pre-fix this raised UnpicklingError out of the control loop.
        rig.run(until=sup.run_once())
        assert rig.metrics.get("supervisor.checkpoints.corrupt") >= 1
        assert sup.checkpoints[iid] == good

    def test_clean_pass_after_corruption_recovers(self, monkeypatch):
        rig, dep, app, sup = checkpointing_rig(seed=42)
        real = ContainerAgentServant.get_state
        monkeypatch.setattr(
            ContainerAgentServant, "get_state",
            lambda self, instance_id: b"\x00garbage\xff")
        rig.run(until=sup.run_once())
        assert sup.checkpoints == {}
        assert rig.metrics.get("supervisor.checkpoints.corrupt") >= 2

        monkeypatch.setattr(ContainerAgentServant, "get_state", real)
        rig.run(until=sup.run_once())
        assert app.instance_id("i0") in sup.checkpoints

    def test_set_state_rejects_garbage_as_agent_error(self):
        rig, dep, app, sup = checkpointing_rig(seed=43)
        host = app.placement["i0"]
        servant = ContainerAgentServant(rig.node(host))
        with pytest.raises(AgentError):
            servant.set_state(app.instance_id("i0"), b"\xde\xad\xbe\xef")

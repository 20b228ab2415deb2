"""Integration-flavoured unit tests for the ORB runtime."""

import pytest

from repro.orb.core import (
    InterfaceDef,
    ORB,
    OperationDef,
    ParamDef,
    Servant,
    make_exception_class,
    op,
)
from repro.orb.exceptions import (
    BAD_OPERATION,
    BAD_PARAM,
    COMM_FAILURE,
    OBJECT_NOT_EXIST,
    TIMEOUT,
    UNKNOWN,
    SystemException,
)
from repro.orb.typecodes import (
    except_tc,
    sequence_tc,
    tc_double,
    tc_long,
    tc_string,
    tc_void,
)
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.topology import PDA, SERVER, star
from repro.util.errors import ConfigurationError

NEG_TC = except_tc("Negative", [("value", tc_long)],
                   repo_id="IDL:test/Negative:1.0")
Negative = make_exception_class("Negative", NEG_TC)

ECHO = InterfaceDef("IDL:test/Echo:1.0", "Echo", operations=[
    op("echo", [("s", tc_string)], tc_string),
    op("sqrt", [("x", tc_double)], tc_double, raises=[NEG_TC]),
    op("split", [("s", tc_string), ("head", tc_string, "out"),
                 ("tail", tc_string, "out")]),
    op("scale", [("x", tc_double, "inout"), ("factor", tc_double)],
       tc_double),
    op("fire", [("tag", tc_string)], oneway=True),
    op("slow", [], tc_long, cpu_cost=100.0),
])


class EchoServant(Servant):
    _interface = ECHO

    def __init__(self):
        self.fired = []

    def echo(self, s):
        return s

    def sqrt(self, x):
        if x < 0:
            raise Negative(int(x))
        return x ** 0.5

    def split(self, s):
        return (s[:1], s[1:])

    def scale(self, x, factor):
        return (x * factor, x * factor)

    def fire(self, tag):
        self.fired.append(tag)

    def slow(self):
        return 1


@pytest.fixture
def rig():
    env = Environment()
    net = Network(env, star(3, hub_profile=SERVER))
    server = ORB(env, net, "hub")
    client = ORB(env, net, "h0")
    servant = EchoServant()
    ior = server.adapter("root").activate(servant)
    stub = client.stub(ior, ECHO)
    return env, net, server, client, servant, ior, stub


class TestInvocation:
    def test_roundtrip_result(self, rig):
        env, net, server, client, servant, ior, stub = rig
        assert client.sync(stub.echo("hi")) == "hi"

    def test_call_helper(self, rig):
        env, net, server, client, servant, ior, stub = rig
        assert client.call(ior, ECHO.operations["echo"], ("x",)) == "x"

    def test_user_exception_reconstructed(self, rig):
        env, net, server, client, servant, ior, stub = rig
        with pytest.raises(Negative) as exc_info:
            client.sync(stub.sqrt(-4.0))
        assert exc_info.value.value == -4

    def test_out_params_returned_as_tuple(self, rig):
        env, net, server, client, servant, ior, stub = rig
        assert client.sync(stub.split("abc")) == ("a", "bc")

    def test_inout_with_result(self, rig):
        env, net, server, client, servant, ior, stub = rig
        # result + inout value
        assert client.sync(stub.scale(2.0, 3.0)) == (6.0, 6.0)

    def test_oneway_returns_immediately(self, rig):
        env, net, server, client, servant, ior, stub = rig
        ev = stub.fire("t1")
        assert ev.triggered  # already succeeded, before any sim time
        env.run()
        assert servant.fired == ["t1"]

    def test_send_oneway_is_fire_and_forget(self, rig):
        env, net, server, client, servant, ior, stub = rig
        wire_len = client.send_oneway(ior, ECHO.operations["fire"],
                                      ("t1",))
        assert wire_len > 0
        assert client._pending == {}  # no reply expected, ever
        env.run()
        assert servant.fired == ["t1"]
        assert client._pending == {}
        assert client.metrics.get("orb.oneways") == 1

    def test_send_oneway_rejects_twoway_operations(self, rig):
        env, net, server, client, servant, ior, stub = rig
        with pytest.raises(BAD_PARAM):
            client.send_oneway(ior, ECHO.operations["echo"], ("x",))

    def test_untimed_invoke_reaped_by_reply_deadline(self, rig):
        env, net, server, client, servant, ior, stub = rig
        client.reply_deadline = 4.0
        net.topology.set_host_state("hub", alive=False)

        def proc():
            with pytest.raises(TIMEOUT):
                yield client.invoke(ior, ECHO.operations["echo"], ("x",))

        env.run(until=env.process(proc()))
        assert env.now == pytest.approx(4.0)
        assert client._pending == {}

    def test_wrong_arg_count_rejected_client_side(self, rig):
        env, net, server, client, servant, ior, stub = rig
        with pytest.raises(BAD_PARAM):
            stub.echo("a", "b")

    def test_unknown_operation_attribute_error(self, rig):
        env, net, server, client, servant, ior, stub = rig
        with pytest.raises(AttributeError):
            stub.frobnicate()

    def test_servant_bug_maps_to_unknown(self, rig):
        env, net, server, client, servant, ior, stub = rig
        servant.echo = lambda s: 1 / 0
        with pytest.raises(UNKNOWN):
            client.sync(stub.echo("x"))

    def test_invocation_takes_simulated_time(self, rig):
        env, net, server, client, servant, ior, stub = rig
        client.sync(stub.echo("hi"))
        assert env.now > 0.0

    def test_cpu_cost_scales_with_host_power(self):
        def latency(profile):
            env = Environment()
            net = Network(env, star(1, hub_profile=profile))
            server = ORB(env, net, "hub")
            client = ORB(env, net, "h0")
            ior = server.adapter("root").activate(EchoServant())
            client.sync(client.stub(ior, ECHO).slow())
            return env.now
        assert latency(PDA) > latency(SERVER) * 5

    def test_nested_invocation_from_servant(self, rig):
        env, net, server, client, servant, ior, stub = rig

        RELAY = InterfaceDef("IDL:test/Relay:1.0", "Relay", operations=[
            op("relay", [("s", tc_string)], tc_string),
        ])

        class RelayServant(Servant):
            _interface = RELAY

            def __init__(self, orb, target_ior):
                self.orb = orb
                self.target = target_ior

            def relay(self, s):
                # generator method: performs a nested remote call
                result = yield self.orb.invoke(
                    self.target, ECHO.operations["echo"], (s + "!",)
                )
                return result

        relay_orb = ORB(env, net, "h1")
        relay_ior = relay_orb.adapter("root").activate(
            RelayServant(relay_orb, ior)
        )
        got = client.sync(client.stub(relay_ior, RELAY).relay("ping"))
        assert got == "ping!"


class TestTimeoutsAndFailures:
    def test_timeout_on_dead_server(self, rig):
        env, net, server, client, servant, ior, stub = rig
        net.topology.set_host_state("hub", alive=False)
        with pytest.raises(TIMEOUT):
            client.sync(stub.echo("x", _timeout=0.5))

    def test_late_reply_counted_not_crashing(self, rig):
        env, net, server, client, servant, ior, stub = rig
        # Timeout shorter than server dispatch cost: reply arrives late.
        slow_stub = client.stub(ior, ECHO)
        with pytest.raises(TIMEOUT):
            client.sync(slow_stub.slow(_timeout=0.0001))
        env.run()
        assert net.metrics.get("orb.late_replies") == 1.0

    def test_client_crash_fails_pending(self, rig):
        env, net, server, client, servant, ior, stub = rig
        ev = stub.echo("x")
        net.topology.set_host_state("h0", alive=False)
        env.run()
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, COMM_FAILURE)

    def test_no_adapter_object_not_exist(self, rig):
        env, net, server, client, servant, ior, stub = rig
        from repro.orb.ior import IOR
        bad = IOR(ior.repo_id, "hub", "nonexistent", "obj-0")
        with pytest.raises(OBJECT_NOT_EXIST):
            client.sync(client.stub(bad, ECHO).echo("x"))

    def test_bad_operation_rejected_server_side(self, rig):
        env, net, server, client, servant, ior, stub = rig
        fake_op = op("frobnicate", [], tc_long)
        with pytest.raises(BAD_OPERATION):
            client.call(ior, fake_op, ())

    def test_default_timeout_applies(self):
        env = Environment()
        net = Network(env, star(2))
        client = ORB(env, net, "h0", default_timeout=0.25)
        from repro.orb.ior import IOR
        ghost = IOR("IDL:test/Echo:1.0", "h1", "root", "obj-9")
        with pytest.raises(TIMEOUT):
            client.sync(client.stub(ghost, ECHO).echo("x"))
        assert env.now == pytest.approx(0.25)

    @pytest.mark.parametrize("option", [
        {"default_timeout": -1.0},     # every call's deadline in the past
        {"dispatch_limit": -3},        # sheds every request
        {"dispatch_limit": 0},
        {"pipeline_window": -1.0},     # a flush timer that cannot be armed
        {"dispatch_workers": 0},
    ])
    def test_out_of_range_options_refused_at_assembly(self, option):
        env = Environment()
        net = Network(env, star(2))
        with pytest.raises(ConfigurationError):
            ORB(env, net, "h0", **option)
        # Nothing was bound: the host can still get a working ORB.
        ORB(env, net, "h0")


class TestDefinitions:
    def test_oneway_constraints_enforced(self):
        with pytest.raises(ConfigurationError):
            op("bad", [], tc_long, oneway=True)
        with pytest.raises(ConfigurationError):
            op("bad", [("x", tc_long, "out")], oneway=True)

    def test_param_mode_validated(self):
        with pytest.raises(ConfigurationError):
            ParamDef("p", tc_long, "sideways")

    def test_interface_inheritance_lookup(self):
        base = InterfaceDef("IDL:t/A:1.0", "A", operations=[op("a")])
        derived = InterfaceDef("IDL:t/B:1.0", "B",
                               operations=[op("b")], bases=[base])
        assert derived.find_operation("a") is base.operations["a"]
        assert derived.bases == (base,) and base.bases == ()
        assert derived.find_operation("b") is derived.operations["b"]
        assert base.find_operation("b") is None

    def test_duplicate_operation_rejected(self):
        iface = InterfaceDef("IDL:t/C:1.0", "C", operations=[op("x")])
        with pytest.raises(ConfigurationError):
            iface.add_operation(op("x"))

    def test_attributes_become_get_set(self):
        iface = InterfaceDef("IDL:t/D:1.0", "D")
        iface.add_attribute("rw", tc_long)
        iface.add_attribute("ro", tc_string, readonly=True)
        assert "_get_rw" in iface.operations
        assert "_set_rw" in iface.operations
        assert "_get_ro" in iface.operations
        assert "_set_ro" not in iface.operations

    def test_servant_without_interface_rejected(self):
        class Bare(Servant):
            pass
        with pytest.raises(ConfigurationError):
            Bare().interface()

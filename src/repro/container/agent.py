"""The Container Agent: node-to-node instance management.

Remote face of the container used by the deployment planner (create an
instance on a chosen node, wire a connection) and by the migration
engine (incarnate a passivated instance with its externalized state).
Aggregation, the volunteer farm and replica groups create their
instances with :func:`place_instance`; migration ships with its first
half, :func:`ship_package`.
"""

from __future__ import annotations

import pickle

from repro.components.reflection import (INSTANCE_INFO_TC, PORT_INFO_TC,
                                         InstanceInfo)
from repro.orb.core import InterfaceDef, Servant, make_exception_class, op
from repro.orb.exceptions import NO_RESOURCES
from repro.orb.ior import IOR
from repro.orb.typecodes import (
    except_tc,
    sequence_tc,
    struct_tc,
    tc_octetseq,
    tc_string,
)
from repro.util.errors import ValidationError
from repro.xmlmeta.versions import VersionRange

#: deadline of a call made only to look or to tidy up (a resource view,
#: a catalogue, a checkpoint, a re-aim, a worker's teardown): a host
#: that crashed and is not yet known down costs this much, not the
#: ORB's default.
PROBE_TIMEOUT = 2.0

AGENT_ERROR_TC = except_tc(
    "AgentError", [("reason", tc_string)],
    repo_id="IDL:corbalc/Node/AgentError:1.0",
)
AgentError = make_exception_class("AgentError", AGENT_ERROR_TC)

#: (port name, peer reference) pairs used to transfer wiring.
WIRING_TC = struct_tc("Wiring", [
    ("name", tc_string),
    ("peer", tc_string),
], repo_id="IDL:corbalc/Node/Wiring:1.0")

CONTAINER_AGENT_IFACE = InterfaceDef(
    "IDL:corbalc/Node/ContainerAgent:1.0",
    "ContainerAgent",
    operations=[
        op("create_instance",
           [("component", tc_string), ("versions", tc_string),
            ("name", tc_string)],
           INSTANCE_INFO_TC, raises=[AGENT_ERROR_TC], cpu_cost=1.0),
        op("destroy_instance", [("instance_id", tc_string)],
           raises=[AGENT_ERROR_TC]),
        op("connect",
           [("instance_id", tc_string), ("port", tc_string),
            ("peer", tc_string)], raises=[AGENT_ERROR_TC]),
        op("disconnect",
           [("instance_id", tc_string), ("port", tc_string)],
           raises=[AGENT_ERROR_TC]),
        op("subscribe",
           [("instance_id", tc_string), ("port", tc_string),
            ("channel", tc_string)], raises=[AGENT_ERROR_TC]),
        op("incarnate",
           [("component", tc_string), ("versions", tc_string),
            ("instance_id", tc_string), ("state", tc_octetseq),
            ("receptacles", sequence_tc(WIRING_TC)),
            ("subscriptions", sequence_tc(WIRING_TC))],
           INSTANCE_INFO_TC, raises=[AGENT_ERROR_TC], cpu_cost=2.0),
        op("get_state", [("instance_id", tc_string)], tc_octetseq,
           raises=[AGENT_ERROR_TC]),
        op("set_state", [("instance_id", tc_string),
                         ("state", tc_octetseq)],
           raises=[AGENT_ERROR_TC]),
    ],
)


class StateDecodeError(ValidationError):
    """An externalized-state blob failed to decode.

    State travels the wire as an opaque octet sequence, so link-level
    corruption (or a buggy peer) can hand back bytes that are not a
    valid snapshot.  Consumers must treat that as a *bad snapshot*,
    never as a fatal error: a supervisor keeps its previous checkpoint,
    an incarnation attempt fails cleanly and is retried.
    """


def dumps_state(state: dict) -> bytes:
    """Externalized-state wire form (stands in for CDR valuetype)."""
    return pickle.dumps(state, protocol=4)


def loads_state(data: bytes) -> dict:
    try:
        state = pickle.loads(data)
    except Exception as exc:
        raise StateDecodeError(
            f"corrupt externalized state ({len(data)} bytes): "
            f"{exc}") from None
    if not isinstance(state, dict):
        raise StateDecodeError(
            f"externalized state decoded to {type(state).__name__}, "
            f"expected dict")
    return state


def ship_package(node, host: str, cls):
    """Install *cls*'s own package on *host* unless *host* holds that
    exact version; a generator returning the bytes shipped (0: none)."""
    acceptor = node.service_stub(host, "acceptor")
    if (yield acceptor.is_installed(cls.name, f"=={cls.version}")):
        return 0
    pkg = cls.package.data
    yield acceptor.install(pkg)
    return len(pkg)


def place_instance(node, host: str, cls):
    """Create an instance of *cls* on *host*, shipping the package first
    when *host* is not *node*'s; a generator returning its InstanceInfo."""
    if host != node.host_id:
        yield from ship_package(node, host, cls)
    agent = node.service_stub(host, "container")
    return InstanceInfo.from_value(
        (yield agent.create_instance(cls.name, f"=={cls.version}", "")))


class ContainerAgentServant(Servant):
    """Remote instance management on one node's container."""

    _interface = CONTAINER_AGENT_IFACE

    def __init__(self, node) -> None:
        self.node = node

    @property
    def container(self):
        return self.node.container

    def create_instance(self, component: str, versions: str,
                        name: str) -> dict:
        try:
            instance = self.container.create_instance(
                component, requested_name=name or None,
                versions=VersionRange(versions))
        except NO_RESOURCES:
            raise  # system exception travels as-is
        except Exception as exc:
            raise AgentError(str(exc)) from None
        return instance.info().to_value()

    def destroy_instance(self, instance_id: str) -> None:
        try:
            self.container.destroy_instance(instance_id)
        except Exception as exc:
            raise AgentError(str(exc)) from None

    def connect(self, instance_id: str, port: str, peer: str) -> None:
        try:
            self.container.connect(instance_id, port, IOR.from_string(peer))
        except Exception as exc:
            raise AgentError(str(exc)) from None

    def disconnect(self, instance_id: str, port: str) -> None:
        try:
            self.container.disconnect(instance_id, port)
        except Exception as exc:
            raise AgentError(str(exc)) from None

    def subscribe(self, instance_id: str, port: str, channel: str) -> None:
        try:
            instance = self.container._require(instance_id)
            self.container.subscribe_sink(instance, port,
                                          IOR.from_string(channel))
        except Exception as exc:
            raise AgentError(str(exc)) from None

    def incarnate(self, component: str, versions: str, instance_id: str,
                  state: bytes, receptacles: list[dict],
                  subscriptions: list[dict]) -> dict:
        """Re-create a migrated instance here with its captured state."""
        try:
            instance = self.container.incarnate(
                component, VersionRange(versions), instance_id,
                loads_state(state), receptacles, subscriptions)
        except NO_RESOURCES:
            raise
        except Exception as exc:
            raise AgentError(str(exc)) from None
        return instance.info().to_value()

    def get_state(self, instance_id: str) -> bytes:
        """Externalize a running instance's state (replication sync)."""
        instance = self.container.find_instance(instance_id)
        if instance is None:
            raise AgentError(f"no instance {instance_id!r}")
        return dumps_state(instance.executor.get_state())

    def set_state(self, instance_id: str, state: bytes) -> None:
        instance = self.container.find_instance(instance_id)
        if instance is None:
            raise AgentError(f"no instance {instance_id!r}")
        try:
            decoded = loads_state(state)
        except StateDecodeError as exc:
            raise AgentError(str(exc)) from None
        instance.executor.set_state(decoded)

"""The Resource Manager: static traits + dynamic load of one host.

It offers "both node static characteristics (such as CPU and Operating
System Type, ORB) and dynamic system information (such as CPU and
memory load, available resources, etc.)" (§2.4.1), and "collaborates
with the Container in deciding initial placement of component
instances" (§2.4.2) by admitting or refusing QoS reservations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.orb.core import InterfaceDef, Servant, op
from repro.orb.exceptions import NO_RESOURCES
from repro.orb.typecodes import (
    struct_tc,
    tc_boolean,
    tc_double,
    tc_string,
)
from repro.sim.kernel import Environment
from repro.sim.topology import Host
from repro.xmlmeta.descriptors import QoSSpec

#: Wire form of a resource snapshot (used by soft-state updates too).
RESOURCE_SNAPSHOT_TC = struct_tc("ResourceSnapshot", [
    ("host", tc_string),
    ("os", tc_string),
    ("arch", tc_string),
    ("orb", tc_string),
    ("is_tiny", tc_boolean),
    ("cpu_capacity", tc_double),
    ("cpu_committed", tc_double),
    ("memory_capacity", tc_double),
    ("memory_committed", tc_double),
    ("instances", tc_double),
    ("timestamp", tc_double),
], repo_id="IDL:corbalc/Node/ResourceSnapshot:1.0")


@dataclass(frozen=True)
class ResourceSnapshot:
    """Point-in-time view of a host's resources."""

    host: str
    os: str
    arch: str
    orb: str
    is_tiny: bool
    cpu_capacity: float
    cpu_committed: float
    memory_capacity: float
    memory_committed: float
    instances: float
    timestamp: float

    @property
    def cpu_available(self) -> float:
        return max(0.0, self.cpu_capacity - self.cpu_committed)

    @property
    def memory_available(self) -> float:
        return max(0.0, self.memory_capacity - self.memory_committed)

    @property
    def cpu_utilization(self) -> float:
        if self.cpu_capacity <= 0:
            return 1.0
        return min(1.0, self.cpu_committed / self.cpu_capacity)

    def to_value(self) -> dict:
        return {
            "host": self.host, "os": self.os, "arch": self.arch,
            "orb": self.orb, "is_tiny": self.is_tiny,
            "cpu_capacity": self.cpu_capacity,
            "cpu_committed": self.cpu_committed,
            "memory_capacity": self.memory_capacity,
            "memory_committed": self.memory_committed,
            "instances": self.instances,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_value(cls, value: dict) -> "ResourceSnapshot":
        return cls(**value)


class ResourceManager:
    """Reservation-based resource accounting for one host."""

    def __init__(self, env: Environment, host: Host) -> None:
        self.env = env
        self.host = host
        self.cpu_committed = 0.0
        self.memory_committed = 0.0
        self.instance_count = 0
        self.cpu_seconds_charged = 0.0

    # -- static ------------------------------------------------------------
    @property
    def profile(self):
        return self.host.profile

    # -- admission --------------------------------------------------------------
    def fits(self, qos: QoSSpec) -> bool:
        """Would *qos* fit in the currently free capacity?"""
        return (self.cpu_committed + qos.cpu_units <= self.profile.cpu_power
                and self.memory_committed + qos.memory_mb
                <= self.profile.memory_mb)

    def reserve(self, qos: QoSSpec) -> None:
        """Commit resources for an instance; raises NO_RESOURCES."""
        if not self.fits(qos):
            raise NO_RESOURCES(
                f"host {self.host.host_id}: cannot fit cpu={qos.cpu_units} "
                f"mem={qos.memory_mb} (committed {self.cpu_committed}/"
                f"{self.profile.cpu_power}, {self.memory_committed}/"
                f"{self.profile.memory_mb})"
            )
        self.cpu_committed += qos.cpu_units
        self.memory_committed += qos.memory_mb
        self.instance_count += 1

    def release(self, qos: QoSSpec) -> None:
        self.cpu_committed = max(0.0, self.cpu_committed - qos.cpu_units)
        self.memory_committed = max(0.0, self.memory_committed - qos.memory_mb)
        self.instance_count = max(0, self.instance_count - 1)

    # -- activity accounting -----------------------------------------------------
    def charge(self, cpu_seconds: float) -> None:
        """Record actual execution time (ORB dispatches, instance work)."""
        self.cpu_seconds_charged += cpu_seconds

    def work_duration(self, work_units: float) -> float:
        """Simulated seconds to execute *work_units* on this host."""
        return work_units / self.profile.cpu_power

    # -- reflection -----------------------------------------------------------------
    def snapshot(self) -> ResourceSnapshot:
        p = self.profile
        return ResourceSnapshot(
            host=self.host.host_id,
            os=p.os, arch=p.arch, orb=p.orb, is_tiny=p.is_tiny,
            cpu_capacity=p.cpu_power,
            cpu_committed=self.cpu_committed,
            memory_capacity=float(p.memory_mb),
            memory_committed=self.memory_committed,
            instances=float(self.instance_count),
            timestamp=self.env.now,
        )


RESOURCE_MANAGER_IFACE = InterfaceDef(
    "IDL:corbalc/Node/ResourceManager:1.0",
    "ResourceManager",
    operations=[
        op("snapshot", [], RESOURCE_SNAPSHOT_TC),
        op("fits", [("cpu", tc_double), ("memory", tc_double),
                    ("bandwidth", tc_double)], tc_boolean),
    ],
)


class ResourceManagerServant(Servant):
    """Remote face of the Resource Manager."""

    _interface = RESOURCE_MANAGER_IFACE

    def __init__(self, manager: ResourceManager) -> None:
        self.manager = manager

    def snapshot(self) -> dict:
        return self.manager.snapshot().to_value()

    def fits(self, cpu: float, memory: float, bandwidth: float) -> bool:
        return self.manager.fits(QoSSpec(cpu, memory, bandwidth))

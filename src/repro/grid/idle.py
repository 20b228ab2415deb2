"""User-activity model: when is a workstation harvestable?

"Supercomputing out of recycled garbage" (Gelernter's Piranha, cited by
the paper) harvests idle cycles.  The monitor alternates each host
between *busy* (an interactive user holds most of the CPU) and *idle*
periods; while busy, a CPU reservation is taken out of the host's
Resource Manager, so reflection-based placement automatically avoids
machines whose owners are using them.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.hostloop import HostLoop
from repro.xmlmeta.descriptors import QoSSpec


class IdleMonitor:
    """Alternating busy/idle process for one node."""

    def __init__(self, node, rng, mean_busy: float = 30.0,
                 mean_idle: float = 60.0, busy_cpu_fraction: float = 0.8,
                 start_idle: bool = True) -> None:
        self.node = node
        self.rng = rng
        self.mean_busy = mean_busy
        self.mean_idle = mean_idle
        self.busy_cpu_fraction = busy_cpu_fraction
        self.idle = start_idle
        self.transitions = 0
        #: called with (monitor, is_idle) on every transition
        self.listeners: list[Callable[["IdleMonitor", bool], None]] = []
        self._user_qos = QoSSpec(
            cpu_units=busy_cpu_fraction * node.host.profile.cpu_power,
            memory_mb=0.0)
        self.loop = HostLoop(node.env, node.host, self._loop)
        if not start_idle:
            self.node.resources.reserve(self._user_qos)

    @property
    def is_idle(self) -> bool:
        return self.idle and self.node.alive

    def _set_idle(self, idle: bool) -> None:
        if idle == self.idle:
            return
        self.idle = idle
        self.transitions += 1
        if idle:
            self.node.resources.release(self._user_qos)
        else:
            # The user takes priority; over-commit is allowed (the
            # machine is simply saturated), so bypass admission.
            self.node.resources.cpu_committed += self._user_qos.cpu_units
            self.node.resources.instance_count += 1
        for listener in list(self.listeners):
            listener(self, idle)

    def _loop(self):
        while True:
            mean = self.mean_idle if self.idle else self.mean_busy
            yield self.node.env.timeout(
                float(self.rng.exponential(mean)))
            self._set_idle(not self.idle)

"""Soft-consistency reporting (§2.4.3).

"Instead of maintaining a 'strong' network consistency ... the nodes
can send to the MRM periodical updates of their resource availability
which also serve as a 'keep-alive' mechanism.  ...  This soft
consistency protocol leads to lower bandwidth utilization and better
scalability."

Each node runs one reporter process: every ``update_interval`` (with a
per-host phase offset so the fleet doesn't synchronize) it pushes its
:class:`~repro.registry.view.NodeView` to every replica of its group's
MRM as a point-to-point oneway call — the one report transport.  Loss
is tolerated — the next report repairs the view; silence beyond the
MRM's timeout means "down".

:class:`PeriodicReporter` holds the cadence every once-per-interval
reporter shares (this one, the predictive reporter, the federation
publisher) on the one host-bound lifecycle,
:class:`~repro.sim.hostloop.HostLoop`; each of them supplies only what
one tick sends.
"""

from __future__ import annotations

from typing import Sequence

from repro.orb.ior import IOR
from repro.registry.mrm import MRM_IFACE, MrmConfig
from repro.registry.view import NodeView
from repro.sim.hostloop import HostLoop

METER = "registry.soft"

_REPORT = MRM_IFACE.operations["report"]


class PeriodicReporter:
    """One node's reporting process: phase offset, then a tick per interval.

    A host crash interrupts the process.  A restart ticks *now* and
    then resumes the loop: a reconnecting node must re-register at
    once, not one phase offset later — the paper requires graceful
    re-connections, and until the first report lands the registry
    still believes the node is down.  Subclasses supply :meth:`_tick`.
    """

    def __init__(self, node, interval: float, phase: float) -> None:
        self.node = node
        self.interval = interval
        self.phase = phase % interval
        self.reports_sent = 0
        self.loop = HostLoop(node.env, node.host, self._loop,
                             on_crash=self._lose_state,
                             on_restart=self._tick)

    def _tick(self) -> None:
        raise NotImplementedError

    def _lose_state(self) -> None:
        """What a crash costs the reporter beyond its process."""

    def _loop(self):
        if self.phase:
            yield self.node.env.timeout(self.phase)
        while True:
            self._tick()
            yield self.node.env.timeout(self.interval)


class SoftStateReporter(PeriodicReporter):
    """Periodic, unacknowledged view reports from one node."""

    def __init__(self, node, mrm_iors: Sequence[IOR],
                 config: MrmConfig, phase: float = 0.0) -> None:
        self.mrm_iors = list(mrm_iors)
        super().__init__(node, config.update_interval, phase)

    def _tick(self) -> None:
        """One report to every MRM replica.

        Reports are true fire-and-forget: sent with
        ``response_expected=False`` and no pending-reply entry, so a
        reporter never accumulates client-side state no matter how many
        reports it sends to how many dead replicas.
        """
        view = NodeView.collect(self.node).to_value()
        for mrm in self.mrm_iors:
            self.node.orb.send_oneway(mrm, _REPORT,
                                      (self.node.host_id, view),
                                      meter=METER)
        self.reports_sent += 1

    def retarget(self, mrm_iors: Sequence[IOR]) -> None:
        """Point reports at a new MRM replica set (after promotion)."""
        self.mrm_iors = list(mrm_iors)

"""Strong-consistency baseline (what §2.4.3 argues against).

"Strong" here means the MRM is told about *every* change immediately
and reliably: each repository/container change triggers an acknowledged
update (retried on timeout), and a fast heartbeat keeps liveness
knowledge tight.  The consistency benchmark (C4) contrasts this
protocol's bandwidth with the soft-state reporter's.
"""

from __future__ import annotations

from typing import Sequence

from repro.orb.exceptions import SystemException
from repro.orb.ior import IOR
from repro.registry.mrm import MRM_IFACE, MrmConfig
from repro.registry.view import NodeView
from repro.sim.hostloop import HostLoop

METER = "registry.strong"

#: The report op is oneway by design; the strong protocol wants an
#: acknowledged update, so it uses member_hosts() as a cheap synchronous
#: barrier after each report (real systems would have an acked update
#: op; the message count is the same: request + reply).
_REPORT = MRM_IFACE.operations["report"]
_ACK = MRM_IFACE.operations["member_hosts"]


class StrongStateReporter:
    """Immediate, acknowledged change propagation + fast heartbeats."""

    def __init__(self, node, mrm_iors: Sequence[IOR], config: MrmConfig,
                 heartbeat_divisor: float = 5.0, retries: int = 2,
                 meter: str = METER) -> None:
        self.node = node
        self.mrm_iors = list(mrm_iors)
        self.config = config
        self.heartbeat = config.update_interval / heartbeat_divisor
        self.retries = retries
        self.meter = meter
        self.reports_sent = 0
        self.acks_received = 0
        self.loop = HostLoop(node.env, node.host, self._heartbeat_loop)
        node.repository.listeners.append(self._on_change)
        node.container.listeners.append(self._on_change)

    def _on_change(self, _action, _subject) -> None:
        # Dies with the host: a crash mid-acknowledgement must cost the
        # update, not the run.
        self.loop.spawn(self._send_acked())

    def _send_acked(self):
        view = NodeView.collect(self.node).to_value()
        for mrm in self.mrm_iors:
            for attempt in range(1 + self.retries):
                self.node.orb.send_oneway(mrm, _REPORT,
                                          (self.node.host_id, view),
                                          meter=self.meter)
                self.reports_sent += 1
                try:
                    yield self.node.orb.invoke(
                        mrm, _ACK, (), timeout=self.config.query_timeout,
                        meter=self.meter)
                    self.acks_received += 1
                    break
                except SystemException:
                    continue  # retry the update

    def _heartbeat_loop(self):
        while True:
            yield self.node.env.timeout(self.heartbeat)
            view = NodeView.collect(self.node).to_value()
            for mrm in self.mrm_iors:
                self.node.orb.send_oneway(mrm, _REPORT,
                                          (self.node.host_id, view),
                                          meter=self.meter)
            self.reports_sent += 1

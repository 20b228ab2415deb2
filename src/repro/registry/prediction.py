"""Predictive (dead-reckoning) reporting (§2.4.3).

"Predictive and adaptive techniques can be used to predict the resource
availability, thus reducing even more the bandwidth requirements."

The reporter fits an exponentially-weighted slope to its CPU
availability and sends ``report_model`` (view + slope) instead of plain
reports.  Between reports the MRM extrapolates.  A new report is sent
only when:

- the MRM's extrapolation would be off by more than ``tolerance`` CPU
  units, or
- the registry generation changed (components/instances came or went), or
- :data:`KEEPALIVE_FACTOR` × update_interval elapsed since the last
  report (so the MRM's soft-state timeout still detects crashes, and
  must therefore be longer than that keep-alive).

Bandwidth drops in proportion to how predictable the load is; the C10
benchmark quantifies the trade against view staleness.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.orb.ior import IOR
from repro.registry.mrm import MRM_IFACE, MrmConfig
from repro.registry.softstate import PeriodicReporter
from repro.registry.view import NodeView

METER = "registry.pred"

#: Longest silence of a predictive reporter, in update intervals: an
#: accurate model still reports this often, as the keep-alive.
KEEPALIVE_FACTOR = 2.5

#: Weight of the newest sample in the reporter's slope estimate.
SLOPE_ALPHA = 0.3

_REPORT_MODEL = MRM_IFACE.operations["report_model"]


class EwmaSlope:
    """Exponentially-weighted estimate of d(value)/dt."""

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.slope = 0.0
        self._last_value: Optional[float] = None
        self._last_time: Optional[float] = None

    def observe(self, time: float, value: float) -> float:
        if self._last_time is not None and time > self._last_time:
            instantaneous = (value - self._last_value) / (time - self._last_time)
            self.slope = (self.alpha * instantaneous
                          + (1.0 - self.alpha) * self.slope)
        self._last_value = value
        self._last_time = time
        return self.slope


class PredictiveReporter(PeriodicReporter):
    """Model-based reporter: silence while the model stays accurate."""

    def __init__(self, node, mrm_iors: Sequence[IOR], config: MrmConfig,
                 tolerance: float = 10.0, phase: float = 0.0) -> None:
        self.mrm_iors = list(mrm_iors)
        self.tolerance = tolerance
        self.keepalive = KEEPALIVE_FACTOR * config.update_interval
        self.model = EwmaSlope(SLOPE_ALPHA)
        self.reports_suppressed = 0
        # What the MRM believes, for divergence checks.
        self._sent_value: Optional[float] = None
        self._sent_slope = 0.0
        self._sent_time = 0.0
        self._sent_generation = -1.0
        super().__init__(node, config.update_interval, phase)

    def _lose_state(self) -> None:
        self._sent_value = None  # MRM will expire us; resync on restart

    # -- core ------------------------------------------------------------------
    def _mrm_estimate(self) -> Optional[float]:
        if self._sent_value is None:
            return None
        return (self._sent_value
                + self._sent_slope * (self.node.env.now - self._sent_time))

    def _should_send(self, actual: float, generation: float) -> bool:
        estimate = self._mrm_estimate()
        if estimate is None:
            return True
        if generation != self._sent_generation:
            return True
        if abs(estimate - actual) > self.tolerance:
            return True
        if self.node.env.now - self._sent_time >= self.keepalive:
            return True
        return False

    def _send(self, view: NodeView, slope: float) -> None:
        value = view.to_value()
        for mrm in self.mrm_iors:
            self.node.orb.send_oneway(mrm, _REPORT_MODEL,
                                      (self.node.host_id, value, slope),
                                      meter=METER)
        self.reports_sent += 1
        self._sent_value = view.snapshot.cpu_available
        self._sent_slope = slope
        self._sent_time = self.node.env.now
        self._sent_generation = view.generation

    def _tick(self) -> None:
        view = NodeView.collect(self.node)
        slope = self.model.observe(self.node.env.now,
                                   view.snapshot.cpu_available)
        if self._should_send(view.snapshot.cpu_available,
                             view.generation):
            self._send(view, slope)
        else:
            self.reports_suppressed += 1

    def retarget(self, mrm_iors: Sequence[IOR]) -> None:
        self.mrm_iors = list(mrm_iors)
        self._sent_value = None  # force a fresh report to the new MRM

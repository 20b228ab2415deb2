"""Run-time load balancing via instance migration (§2.4.3).

"Network Resource Monitoring and component instance migration and
replication to achieve load balancing" — the balancer periodically
compares host CPU utilizations and, when the spread exceeds a
threshold, migrates a mobile instance from the hottest host to the
host that would profit most, re-wiring the owning application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.container.migration import MigrationError
from repro.deployment.application import Application, Deployer
from repro.deployment.planner import load_imbalance
from repro.orb.exceptions import SystemException
from repro.sim.hostloop import HostLoop
from repro.sim.kernel import Event


@dataclass(frozen=True)
class BalanceAction:
    """One migration the balancer performed."""

    time: float
    instance: str
    application: str
    source: str
    target: str


class LoadBalancer:
    """Threshold-based migration scheduler over a deployer's nodes."""

    def __init__(self, deployer: Deployer, threshold: float = 0.25,
                 interval: float = 10.0) -> None:
        self.deployer = deployer
        self.threshold = threshold
        self.interval = interval
        self.actions: list[BalanceAction] = []
        #: the continuous mode's loop, bound to the coordinator's host;
        #: ``None`` until :meth:`start` and after :meth:`stop`.
        self.loop: Optional[HostLoop] = None

    # -- one-shot ------------------------------------------------------------
    def run_once(self) -> Event:
        """One balancing pass; yields the action taken or None."""
        return self.deployer.env.process(self._run_once())

    def _run_once(self):
        views = yield from self.deployer._gather_views()
        usable = [v for v in views if not v.is_tiny]
        if len(usable) < 2 or load_imbalance(usable) < self.threshold:
            return None
        hottest = max(usable, key=lambda v: v.cpu_utilization)
        coolest = min(usable, key=lambda v: v.cpu_utilization)
        choice = self._pick_instance(hottest.host, coolest)
        if choice is None:
            return None
        app, instance_name, qos = choice
        try:
            yield app.migrate(instance_name, coolest.host)
        except MigrationError:
            return None
        except SystemException:
            # A host crashed mid-migration or mid-rewire.  The balancer
            # is a background service: it must log the failure and keep
            # its loop alive, not die with the host that crashed.
            self.deployer.coordinator.metrics.counter(
                "balance.failures").inc()
            return None
        action = BalanceAction(
            time=self.deployer.env.now, instance=instance_name,
            application=app.name, source=hottest.host, target=coolest.host)
        self.actions.append(action)
        self.deployer.coordinator.metrics.counter("balance.migrations").inc()
        return action

    def _pick_instance(self, hot_host: str, cool_view
                       ) -> Optional[tuple[Application, str, object]]:
        """The biggest mobile instance on *hot_host* that fits the target."""
        best = None
        for app in self.deployer.applications:
            for name, host in app.placement.items():
                if host != hot_host:
                    continue
                info = app.infos[name]
                node = self.deployer.nodes[hot_host]
                instance = node.container.find_instance(info.instance_id)
                if instance is None:
                    continue
                cls = instance.component_class
                if not cls.is_mobile:
                    continue
                qos = cls.component_type.qos
                if (qos.cpu_units > cool_view.cpu_available
                        or qos.memory_mb > cool_view.memory_available):
                    continue
                if best is None or qos.cpu_units > best[2].cpu_units:
                    best = (app, name, qos)
        return best

    # -- continuous -------------------------------------------------------------
    def start(self) -> None:
        if self.loop is None:
            self.loop = HostLoop(self.deployer.env,
                                 self.deployer.coordinator.host, self._loop)

    def stop(self) -> None:
        if self.loop is not None:
            self.loop.stop()
            self.loop = None

    def _loop(self):
        while True:
            yield self.deployer.env.timeout(self.interval)
            yield from self._run_once()

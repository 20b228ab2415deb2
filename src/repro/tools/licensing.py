"""Pay-per-use accounting (§2.1.1).

"Pay-per-use information: describes the licensing model for this
component."  The meter observes one node's container: every creation
of an instance of a ``pay-per-use`` component accrues that component's
``cost_per_use`` to its vendor.  ``subscription`` components accrue
usage-time instead (charged on destruction); ``free`` components cost
nothing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class UsageRecord:
    vendor: str
    component: str
    license: str
    uses: int = 0
    usage_seconds: float = 0.0
    charge: float = 0.0


class UsageMeter:
    """Per-node licensing meter over container lifecycle events."""

    #: per-second rate applied to 'subscription' components.
    SUBSCRIPTION_RATE = 0.001

    def __init__(self, node) -> None:
        self.node = node
        self._records: dict[str, UsageRecord] = {}
        self._started: dict[str, float] = {}   # instance_id -> t_created
        node.container.listeners.append(self._on_event)

    def _record_for(self, cls) -> UsageRecord:
        soft = cls.software
        record = self._records.get(soft.name)
        if record is None:
            record = self._records[soft.name] = UsageRecord(
                vendor=soft.vendor, component=soft.name,
                license=soft.license)
        return record

    def _on_event(self, action: str, instance) -> None:
        cls = instance.component_class
        soft = cls.software
        if soft.license == "free":
            return
        record = self._record_for(cls)
        now = self.node.env.now
        if action == "created":
            record.uses += 1
            self._started[instance.instance_id] = now
            if soft.license == "pay-per-use":
                record.charge += soft.cost_per_use
        elif action in ("destroyed", "migrated-out"):
            started = self._started.pop(instance.instance_id, None)
            if started is not None:
                elapsed = now - started
                record.usage_seconds += elapsed
                if soft.license == "subscription":
                    record.charge += elapsed * self.SUBSCRIPTION_RATE

    # -- reporting ----------------------------------------------------------
    def records(self) -> list[UsageRecord]:
        return sorted(self._records.values(),
                      key=lambda r: (r.vendor, r.component))

    def total_due(self) -> float:
        return sum(r.charge for r in self._records.values())

    def invoice(self) -> str:
        """Human-readable statement per vendor."""
        by_vendor: dict[str, list[UsageRecord]] = defaultdict(list)
        for record in self.records():
            by_vendor[record.vendor].append(record)
        lines = [f"licensing statement for node {self.node.host_id}"]
        for vendor in sorted(by_vendor):
            lines.append(f"  vendor {vendor}:")
            for r in by_vendor[vendor]:
                lines.append(
                    f"    {r.component} [{r.license}] uses={r.uses} "
                    f"time={r.usage_seconds:.1f}s due={r.charge:.4f}")
            subtotal = sum(r.charge for r in by_vendor[vendor])
            lines.append(f"    subtotal: {subtotal:.4f}")
        lines.append(f"  total due: {self.total_due():.4f}")
        return "\n".join(lines)

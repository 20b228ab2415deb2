"""Run-time deployment (§2.4.4).

"In CORBA-LC the matching between component required instances and
network-running instances is performed at run-time: the exact node in
which every instance is going to be run is decided when the application
requests it, and this decision may change to reflect changes in the
load of either the nodes or the network."

- :mod:`repro.deployment.planner` — placement policies: the QoS/load
  aware run-time planner, and the baselines the benchmarks compare it
  against (CCM-style static assignment, random, round-robin).
- :mod:`repro.deployment.application` — the one :class:`Deployer`:
  deploying an assembly descriptor, wiring ports, teardown, and
  re-wiring after migrations, whether it holds every node or one.
- :mod:`repro.deployment.bootstrap` — applications as bootstrap
  components: an installable package whose one instance deploys its
  assembly through a :class:`Deployer` holding only its own node.
- :mod:`repro.deployment.supervisor` — the self-healing loop that
  re-incarnates instances stranded by host crashes, promotes replica
  primaries under fencing epochs, and sweeps teardown orphans.
"""

from repro.deployment.planner import (
    PlannerBase,
    RandomPlanner,
    RoundRobinPlanner,
    RuntimePlanner,
    StaticPlanner,
)
from repro.deployment.application import Application, Deployer, DeploymentError
from repro.deployment.supervisor import (
    ApplicationSupervisor,
    RecoveryRecord,
)

__all__ = [
    "PlannerBase",
    "RuntimePlanner",
    "StaticPlanner",
    "RandomPlanner",
    "RoundRobinPlanner",
    "Application",
    "ApplicationSupervisor",
    "Deployer",
    "DeploymentError",
    "RecoveryRecord",
]

"""A supervised rig for tests: the deployment supervisor reads liveness
from a soft-state Distributed Registry, its only liveness source.

Because liveness is observed, a crashed host is stranded only once the
registry's member timeout has passed, and a restarted one is back once
its first report lands.  A test that crashes or restarts a host and
wants the supervisor to see it calls :func:`detect` first.
"""

from repro.deployment import ApplicationSupervisor
from repro.registry.groups import DistributedRegistry, RegistryConfig

#: one report a second: a crash leaves the view within ~4 s.
CONFIG = RegistryConfig(update_interval=1.0)


def supervise(rig, deployer, **kwargs) -> ApplicationSupervisor:
    """Deploy a one-group MRM registry over every host of *rig* (its
    MRM on the first host), let its views settle, and start an
    :class:`ApplicationSupervisor` of *deployer* reading it."""
    registry = DistributedRegistry(rig.nodes, CONFIG)
    registry.deploy({"g0": list(rig.topology.host_ids())})
    rig.run(until=rig.env.now + registry.settle_time())
    return ApplicationSupervisor(deployer, registry, **kwargs)


def detect(rig, sup) -> None:
    """Run until *sup*'s view has caught up with crashes and restarts
    made before the call: past the member timeout and one more sweep
    (a restarted host reports at once)."""
    config = sup.registry.mrm_config
    rig.run(until=rig.env.now + config.member_timeout
            + 2 * config.update_interval)

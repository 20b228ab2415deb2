#!/usr/bin/env python
"""An application as one component: assembly → gate → bootstrap.

1. The application is an :class:`AssemblyDescriptor` written directly,
   and :class:`DeploymentGate` checks its wiring against the packages
   the nodes hold (port types, event kinds) before anything runs.
2. The assembly is wrapped into a **bootstrap component**
   (§2.4.4: "applications are just special components"), installed on
   one node, and instantiated — the single instance deploys the whole
   application through remote Node services.
3. A :class:`UsageMeter` shows the pay-per-use accounting of §2.1.1.

Run:  python examples/builder_and_bootstrap.py
"""

import dataclasses

from repro.analysis import DeploymentGate
from repro.cscw import (
    display_package,
    gui_part_package,
    whiteboard_package,
)
from repro.deployment.bootstrap import application_package
from repro.packaging.package import ComponentPackage, PackageBuilder
from repro.sim.topology import SERVER, star
from repro.testing import SimRig
from repro.tools import UsageMeter
from repro.xmlmeta.descriptors import (
    AssemblyConnection,
    AssemblyDescriptor,
    AssemblyInstance,
)


def pay_per_use(package: ComponentPackage,
                cost: float) -> ComponentPackage:
    """Re-license a package as pay-per-use (vendor would do this)."""
    soft = dataclasses.replace(package.software, license="pay-per-use",
                               cost_per_use=cost)
    builder = PackageBuilder(soft, package.component)
    for path in package.members():
        if path.startswith("bin/"):
            builder.add_binary(path, package.member(path))
    return ComponentPackage(builder.build())


def main():
    rig = SimRig(star(3, hub_profile=SERVER))
    hub = rig.node("hub")

    # Publish components across the network; the whiteboard is a
    # commercial pay-per-use component in this story.
    hub.install_package(pay_per_use(whiteboard_package(), cost=0.50))
    hub.install_package(gui_part_package())
    rig.node("h0").install_package(display_package())
    meters = {host: UsageMeter(node) for host, node in rig.nodes.items()}

    # 1. the application, checked against the packages the nodes hold
    assembly = AssemblyDescriptor(
        "board-app",
        instances=[AssemblyInstance("board", "Whiteboard"),
                   AssemblyInstance("gui", "BoardGui"),
                   AssemblyInstance("screen", "Display")],
        connections=[
            AssemblyConnection("gui", "display", "screen", "graphics"),
            AssemblyConnection("gui", "board", "board", "changes",
                               kind="event"),
        ])
    DeploymentGate().check(assembly, rig.nodes)
    print(f"assembly {assembly.name!r}: "
          f"{len(assembly.instances)} instances, "
          f"{len(assembly.connections)} connections (verified)")

    # 2. ship it as a bootstrap component and light it up from h2
    app_pkg = application_package(assembly)
    h2 = rig.node("h2")
    h2.install_package(app_pkg)
    bootstrap = h2.container.create_instance(app_pkg.name)
    rig.run(until=rig.env.now + 3.0)
    app = bootstrap.executor.application
    if bootstrap.executor.deploy_error:
        raise SystemExit(f"deploy failed: {bootstrap.executor.deploy_error}")
    print(f"bootstrap instance on h2 deployed the app: {app.placement}")

    # 3. the pay-per-use whiteboard was metered wherever it landed
    board_host = app.placement["board"]
    print(f"\n{meters[board_host].invoice()}")

    # teardown through the bootstrap instance
    h2.container.destroy_instance(bootstrap.instance_id)
    rig.run(until=rig.env.now + 2.0)
    print(f"\nafter bootstrap destruction, app torn down: "
          f"{app.torn_down}")


if __name__ == "__main__":
    main()

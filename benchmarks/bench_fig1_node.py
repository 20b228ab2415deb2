"""E1 — Figure 1: the Logical Internal Node Structure, exercised.

One full node life-cycle: a package arrives through the Component
Acceptor, lands in the Component Repository, is reflected by the
Component Registry, admitted by the Resource Manager, instantiated in
the Container, and resolved through the node.  The table reports what
each Fig. 1 box did.
"""

from _harness import Table, report
from repro.testing import COUNTER_IFACE, counter_package, star_rig


def full_cycle():
    rig = star_rig(1)
    hub, h0 = rig.node("hub"), rig.node("h0")
    pkg_bytes = counter_package().data

    # Component Acceptor: remote run-time installation.
    acceptor = h0.service_stub("hub", "acceptor")
    h0.orb.sync(acceptor.install(pkg_bytes))

    # Component Registry reflects the repository...
    registry = h0.service_stub("hub", "registry")
    installed = h0.orb.sync(registry.installed())
    providers = h0.orb.sync(registry.find_providers(COUNTER_IFACE.repo_id))

    # Resource Manager admits, Container instantiates (via the factory).
    factory_ior = h0.orb.sync(registry.factory_of("Counter"))
    from repro.components.factory import FACTORY_IFACE
    factory = h0.orb.stub(factory_ior, FACTORY_IFACE)
    iid = h0.orb.sync(factory.create_instance(""))
    facet = h0.orb.sync(factory.get_facet(iid, "value"))

    # ...and now reflects the running instance too.
    instances = h0.orb.sync(registry.instances())
    running = h0.orb.sync(registry.running_providers(COUNTER_IFACE.repo_id))

    # Use it, then tear down.
    stub = h0.orb.stub(facet, COUNTER_IFACE)
    value = h0.orb.sync(stub.increment(1))
    h0.orb.sync(factory.destroy_instance(iid))

    snap = hub.resources.snapshot()
    return {
        "sim_time": rig.env.now,
        "installed": len(installed),
        "providers": providers,
        "instances_seen": len(instances),
        "running_seen": len(running),
        "value": value,
        "cpu_after_teardown": snap.cpu_committed,
        "wire_bytes": rig.metrics.get("net.bytes"),
        "package_bytes": len(pkg_bytes),
    }


def experiment():
    """Run E1 once, assert the cycle worked, return its table."""
    result = full_cycle()
    assert result["value"] == 1
    assert result["cpu_after_teardown"] == 0.0
    return [Table(
        "E1: Fig.1 node cycle "
        "(accept -> reflect -> admit -> instantiate -> use)",
        ["step/box", "observation"], [
            ["Component Acceptor", f"installed {result['package_bytes']}-byte package remotely"],
            ["Component Repository", f"{result['installed']} component installed"],
            ["Component Registry", f"providers={result['providers']}, "
                                   f"instances={result['instances_seen']}, "
                                   f"running={result['running_seen']}"],
            ["Container + factory", "create/get_facet/destroy all remote"],
            ["Resource Manager", "reservations returned to 0 after teardown"],
            ["whole cycle", f"{result['sim_time']*1000:.1f} ms simulated, "
                            f"{int(result['wire_bytes'])} wire bytes"],
        ])]


def test_fig1_node_cycle(capsys):
    for table in experiment():
        report(capsys, *table)

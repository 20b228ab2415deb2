"""The host-bound loop lifecycle, proven once on the primitive.

Every background service runs its loop through
:class:`~repro.sim.hostloop.HostLoop`, so the law is checked here, on
the primitive, and a parametrised conformance case at the bottom only
shows that each service *uses* it.

The state machine applies ``crash``, ``restart``, ``stop`` and
``spawn`` in any order — several in one instant when ``drain`` is
false, which is where the hand-written copies went wrong — and
``advance(dt)`` moves time.  The model is two booleans, ``up`` and
``stopped``.  The body counts its entries and exits (``finally``) and
records ``host.alive`` at every tick; spawned work records it at every
step.  The law:

- at any moment ``loop.alive`` is ``up and not stopped``, ``on_crash``
  ran once per crash of an un-stopped loop and ``on_restart`` once per
  restart, before the new body's first step;
- no tick and no spawned step ever runs on a dead host;
- once the instant has drained, live bodies == 1 iff ``up and not
  stopped`` (never two, never none) and nothing spawned outlives a
  crash or a stop.

A tick, or a step, is what a process does after a wait.  Its *entry*
(up to the first ``yield``) is not one: the kernel delivers a process's
``Initialize`` before an ``Interruption`` queued behind it, so a loop
restarted and crashed in one instant still runs its entry, as the nine
hand-written copies did (chaos seed 163 heals and re-crashes ``c2h0``
in one instant, and its digest depends on it; whatever the entry sends
is dropped by ``Network.send`` as ``net.dropped.src_dead``).

Three named mutants — the shapes of bugs this repo shipped — must each
fail it.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.deployment import (
    ApplicationSupervisor,
    Deployer,
    LoadBalancer,
    RuntimePlanner,
)
from repro.grid.idle import IdleMonitor
from repro.registry.cohesion import CohesionAgent
from repro.registry.federation import FederatedRegistry, FederationConfig
from repro.registry.groups import DistributedRegistry, RegistryConfig
from repro.registry.mrm import MrmAgent
from repro.registry.softstate import SoftStateReporter
from repro.registry.strongstate import StrongStateReporter
from repro.sim.hostloop import HostLoop
from repro.sim.kernel import Environment
from repro.sim.topology import SERVER, Host
from repro.testing import star_rig

SETTINGS = settings(max_examples=250, stateful_step_count=30,
                    deadline=None, derandomize=True,
                    report_multiple_bugs=False)

drain = st.booleans()


class HostLoopMachine(RuleBasedStateMachine):
    loop_cls = HostLoop

    def __init__(self) -> None:
        super().__init__()
        self.env = Environment()
        self.host = Host("h", SERVER)
        self.up = True
        self.stopped = False
        self.entered = 0
        self.exited = 0
        self.spawned_live = 0
        self.steps_on_dead_host = 0
        self.crash_calls = self.crashes = 0
        self.restart_calls = self.restarts = 0
        self.restarted_since_entry = True   # construction counts
        self.loop = self.loop_cls(self.env, self.host, self._body,
                                  on_crash=self._on_crash,
                                  on_restart=self._on_restart)

    # -- what the loop runs ------------------------------------------------
    def _wait_then_step(self):
        yield self.env.timeout(1.0)
        if not self.host.alive:
            self.steps_on_dead_host += 1

    def _body(self):
        assert self.restarted_since_entry, "body entered with no restart"
        self.restarted_since_entry = False
        self.entered += 1
        try:
            while True:
                yield from self._wait_then_step()
        finally:
            self.exited += 1

    def _work(self):
        self.spawned_live += 1
        try:
            for _ in range(3):
                yield from self._wait_then_step()
        finally:
            self.spawned_live -= 1

    def _on_crash(self) -> None:
        self.crash_calls += 1

    def _on_restart(self) -> None:
        self.restart_calls += 1
        self.restarted_since_entry = True

    # -- rules -------------------------------------------------------------
    def _settle(self, drain: bool) -> None:
        if drain:
            self.advance(0.0)

    @rule(drain=drain)
    def crash(self, drain):
        if self.up and not self.stopped:
            self.crashes += 1
        self.up = False
        self.host.crash()
        self._settle(drain)

    @rule(drain=drain)
    def restart(self, drain):
        if not self.up and not self.stopped:
            self.restarts += 1
        self.up = True
        self.host.restart()
        self._settle(drain)

    @rule(drain=drain)
    def stop(self, drain):
        self.stopped = True
        self.loop.stop()
        self._settle(drain)

    @rule(drain=drain)
    def spawn(self, drain):
        proc = self.loop.spawn(self._work())
        assert (proc is not None) == (self.up and not self.stopped)
        self._settle(drain)

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    def advance(self, dt):
        """Run to ``now + dt``; the instant it ends on has drained."""
        self.env.run(until=self.env.now + dt)
        running = self.up and not self.stopped
        assert self.entered - self.exited == (1 if running else 0), \
            f"{self.entered - self.exited} live bodies, running={running}"
        if not running:
            assert self.spawned_live == 0, "spawned work outlived its host"

    # -- the law's immediate half ------------------------------------------
    @invariant()
    def handle_follows_the_model(self):
        assert self.loop.alive == (self.up and not self.stopped)

    @invariant()
    def nothing_ran_on_a_dead_host(self):
        assert self.steps_on_dead_host == 0

    @invariant()
    def callbacks_ran_once_per_transition(self):
        assert self.crash_calls == self.crashes
        assert self.restart_calls == self.restarts


def test_host_loop_lifecycle_law():
    run_state_machine_as_test(HostLoopMachine, settings=SETTINGS)


def test_a_loop_built_on_a_dead_host_waits_for_the_restart():
    """The hand-written copies started a process at once and a second
    one at the restart."""
    env, host = Environment(), Host("h", SERVER)
    host.crash()
    entered = []

    def body():
        entered.append(env.now)
        while True:
            yield env.timeout(1.0)

    loop = HostLoop(env, host, body)
    env.run(until=3.0)
    assert not loop.alive and entered == []
    host.restart()
    env.run(until=5.0)
    assert loop.alive and entered == [3.0]


# -- mutants -----------------------------------------------------------------
# Each is one way this protocol was hand-written wrong in this repo.

class CrashDoesNotInterrupt(HostLoop):
    """The crash hook drops the handle and the state but leaves the
    process running: a loop that ticks on a dead host, and a second one
    beside it after the restart."""

    def _crash(self, _host):
        self._proc = None
        self._spawned = []
        self.on_crash()


class StopKeepsTheRestartHook(HostLoop):
    """``stop()`` interrupts but stays hooked (ApplicationSupervisor
    before PR 22): the next restart revives a stopped loop."""

    def stop(self):
        self.stopped = True
        self._interrupt("loop stopped")
        if self._crash in self.host.on_crash:
            self.host.on_crash.remove(self._crash)


class StartGuardedByIsAlive(HostLoop):
    """The handle is kept across the interrupt and the start is guarded
    by ``is_alive`` (LoadBalancer before PR 22): a restart in the
    instant of the crash sees the interrupted-but-not-yet-dead process
    as alive and starts nothing."""

    def _crash(self, _host):
        if self._proc.is_alive:
            self._proc.interrupt("host crashed")
        self.on_crash()

    def _restart(self, _host):
        self.on_restart()
        if not self._proc.is_alive:
            self._proc = self.env.process(self._run(self.body()))


@pytest.mark.parametrize("mutant", [CrashDoesNotInterrupt,
                                    StopKeepsTheRestartHook,
                                    StartGuardedByIsAlive],
                         ids=lambda m: m.__name__)
def test_named_mutant_fails_the_law(mutant):
    machine = type(mutant.__name__ + "Machine", (HostLoopMachine,),
                   {"loop_cls": mutant})
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=SETTINGS)


# -- conformance -------------------------------------------------------------
# Not nine re-proofs of the law: each migrated lifecycle is built on a
# small rig and shown to hand its loops to the primitive, by reading the
# one public fact (``loop.alive``) through a crash, a restart and, where
# the service has one, its stop.  Each builder returns the host the
# service is bound to, its loops, and its stop (or ``None``).

def _soft_reporter(rig):
    mrm = MrmAgent(rig.node("hub"), "g0")
    reporter = SoftStateReporter(rig.node("h0"), [mrm.ior], mrm.config)
    return "h0", [reporter.loop], None


def _strong_reporter(rig):
    mrm = MrmAgent(rig.node("hub"), "g0")
    reporter = StrongStateReporter(rig.node("h0"), [mrm.ior], mrm.config)
    return "h0", [reporter.loop], None


def _mrm_agent(rig):
    root = MrmAgent(rig.node("hub"), "root")
    agent = MrmAgent(rig.node("h0"), "g0", parent_iors=(root.ior,))
    assert len(agent.loops) == 2        # sweep + parent report
    return "h0", agent.loops, agent.retire


def _shard_agent(rig):
    fed = FederatedRegistry(rig.nodes, FederationConfig(owners=2))
    fed.deploy(owner_hosts=["h0", "h1"])
    return "h0", [fed.agents["h0"].loop], fed.agents["h0"].retire


def _application_supervisor(rig):
    sup = ApplicationSupervisor(
        Deployer(rig.nodes, RuntimePlanner(), coordinator_host="h0"),
        interval=1.0)
    return "h0", [sup.loop], sup.stop


def _mrm_supervisor(rig):
    registry = DistributedRegistry(
        rig.nodes, RegistryConfig(supervise=True, supervise_interval=1.0))
    registry.deploy({"g0": ["hub", "h0", "h1"]})
    (watchdog,) = registry.supervisors
    return watchdog.node.host_id, [watchdog.loop], None


def _cohesion_agent(rig):
    agent = CohesionAgent(rig.node("h0"), seeds=["hub"], ping_interval=1.0)
    return "h0", [agent.loop], agent.shutdown


def _idle_monitor(rig):
    monitor = IdleMonitor(rig.node("h0"), rig.rngs.stream("idle"),
                          mean_busy=1.0, mean_idle=1.0)
    return "h0", [monitor.loop], None


def _load_balancer(rig):
    balancer = LoadBalancer(
        Deployer(rig.nodes, RuntimePlanner(), coordinator_host="h0"),
        interval=1.0)
    balancer.start()
    return "h0", [balancer.loop], balancer.stop


@pytest.mark.parametrize("build", [
    _soft_reporter, _strong_reporter, _mrm_agent, _shard_agent,
    _application_supervisor, _mrm_supervisor, _cohesion_agent,
    _idle_monitor, _load_balancer,
], ids=lambda b: b.__name__.lstrip("_"))
def test_migrated_lifecycle_runs_on_the_primitive(build):
    rig = star_rig(3, seed=5)
    host_id, loops, stop = build(rig)
    host = rig.topology.host(host_id)

    def expect(alive: bool) -> None:
        assert loops and all(isinstance(loop, HostLoop) and
                             loop.host is host for loop in loops)
        assert [loop.alive for loop in loops] == [alive] * len(loops)
        rig.run(until=rig.env.now + 2.5)
        assert [loop.alive for loop in loops] == [alive] * len(loops)

    expect(True)
    for alive in (False, True, False, True):
        rig.topology.set_host_state(host_id, alive=alive)
        assert host.alive == alive
        expect(alive)
    if stop is not None:
        stop()
        expect(False)
        rig.topology.set_host_state(host_id, alive=False)
        rig.topology.set_host_state(host_id, alive=True)
        expect(False)           # stopped for good: nothing revives it

"""One lifecycle for every host-bound loop (§2.4.3).

The paper demands protocols that "support spurious node failures and
node disconnections (and re-connections) gracefully".  For a background
service that is one protocol against its
:class:`~repro.sim.topology.Host` — start one process; a crash
interrupts it and costs the service its RAM; a restart starts exactly
one again; ``stop()`` ends it for good — and :class:`HostLoop` is that
protocol, written once.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim.kernel import Environment, Interrupt, Process
from repro.sim.topology import Host


class HostLoop:
    """Exactly one process running *body* while *host* is up.

    *body* is a generator function — the service's loop, with no
    ``Interrupt`` handling of its own.  A crash interrupts it and every
    live :meth:`spawn`\\ ed process, then calls ``on_crash()``: what the
    crash costs the service (its tables; RAM is gone).  A restart calls
    ``on_restart()`` — what must happen before the loop resumes (report
    now, re-seed membership) — then starts one fresh process.
    :meth:`stop` interrupts likewise *and* unhooks from the host, so a
    stopped loop cannot be revived by a later restart and a service
    that is replaced many times leaks no hooks.
    """

    def __init__(self, env: Environment, host: Host,
                 body: Callable[[], Generator],
                 on_crash: Optional[Callable[[], None]] = None,
                 on_restart: Optional[Callable[[], None]] = None) -> None:
        self.env = env
        self.host = host
        self.body = body
        self.on_crash = on_crash
        self.on_restart = on_restart
        self.stopped = False
        self._proc: Optional[Process] = None
        self._spawned: list[Process] = []
        if host.alive:
            self._proc = env.process(self._run(body()))
        host.on_crash.append(self._crash)
        host.on_restart.append(self._restart)

    @property
    def alive(self) -> bool:
        """``host.alive`` for a healthy loop; false for good once stopped."""
        return self._proc is not None and self._proc.is_alive

    def spawn(self, generator: Generator) -> Optional[Process]:
        """Run one-shot work that must die with the host; nothing is
        started on a dead host or a stopped loop."""
        if self.stopped or not self.host.alive:
            return None
        proc = self.env.process(self._run(generator))
        self._spawned = [p for p in self._spawned if p.is_alive] + [proc]
        return proc

    def stop(self) -> None:
        """End the loop for good (idempotent)."""
        self.stopped = True
        self._interrupt("loop stopped")
        for hooks, hook in ((self.host.on_crash, self._crash),
                            (self.host.on_restart, self._restart)):
            if hook in hooks:
                hooks.remove(hook)

    def _run(self, generator: Generator):
        try:
            yield from generator
        except Interrupt:
            return

    def _interrupt(self, cause: str) -> None:
        for proc in (self._proc, *self._spawned):
            if proc is not None and proc.is_alive:
                proc.interrupt(cause)
        self._proc = None
        self._spawned = []

    def _crash(self, _host: Host) -> None:
        self._interrupt("host crashed")
        if self.on_crash is not None:
            self.on_crash()

    def _restart(self, _host: Host) -> None:
        if self.on_restart is not None:
            self.on_restart()
        self._proc = self.env.process(self._run(self.body()))

"""Discrete-event simulation kernel.

A compact, deterministic engine with SimPy-compatible semantics for the
subset the library uses:

- :class:`Event` — one-shot occurrence carrying a value or an exception.
- :class:`Timeout` — event that triggers after a simulated delay.
- :class:`Process` — a generator driven by the events it yields.
- :class:`AnyOf` / :class:`AllOf` — composite wait conditions.
- :class:`Environment` — the event queue and clock.

Determinism: events due at one instant run URGENT ones (triggers,
process starts, interrupts) before NORMAL ones (timeouts), each in the
order it was triggered -- so an interrupt issued in the instant a
process is created lands after the process's first step, which the
host-loop interrupt epoch relies on (``tests/sim/test_kernel_ordering.py``).
A program produces an identical trace on every run: nothing here reads
wall-clock time or an unseeded RNG.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

#: Scheduling priorities for events that fire at the same simulated time.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    ``cause`` carries the value the interrupter supplied.
    """

    @property
    def cause(self) -> Any:
        return self.args[0]


class StopSimulation(Exception):
    """Internal: raised to end :meth:`Environment.run` at its horizon."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once given a value via
    :meth:`succeed` / :meth:`fail`, and is *processed* after the
    environment has run its callbacks.
    """

    # Slotted: events are created several times per simulated message,
    # so skipping the per-instance dict is a measurable win.  The
    # __weakref__ slot stays because observability code keys
    # WeakKeyDictionaries by Process.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused",
                 "__weakref__")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked (with this event) when the event is processed.
        #: ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        #: Set when a failure has been consumed (e.g. thrown into a
        #: process); undefused failures crash the simulation run.
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or will be) scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heapq.heappush(env._queue, (env._now, URGENT, env._eid, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._ok = False
        self._value = exc
        env = self.env
        env._eid += 1
        heapq.heappush(env._queue, (env._now, URGENT, env._eid, self))
        return self

    def defused(self) -> "Event":
        """Mark a failure as handled so it will not crash the run."""
        self._defused = True
        return self

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(Event):
    """Event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Event.__init__ inlined: timeouts carry every network message
        # and every operation's CPU cost, so the super() frame counts.
        self.env = env
        self.callbacks = []
        self._defused = False
        self._delay = delay
        self._ok = True
        self._value = value
        env._eid += 1
        heapq.heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at 0x{id(self):x}>"


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT)


class Interruption(Event):
    """Internal event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ("_process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self._process = process
        self.callbacks.append(self._deliver)
        self.env._schedule(self, URGENT)

    def _deliver(self, event: "Event") -> None:
        proc = self._process
        if proc.triggered:  # process already finished; drop silently
            return
        # Detach the process from whatever it was waiting on, then resume
        # it with the failed (Interrupt-carrying) event.
        if proc._target is not None and proc._target.callbacks is not None:
            try:
                proc._target.callbacks.remove(proc._resume)
            except ValueError:
                pass
        proc._resume(self)


class Process(Event):
    """Drives a generator; the process *is* an event that triggers when
    the generator returns (value = ``return`` value) or raises.

    Inside the generator, ``yield event`` suspends until the event is
    processed; the ``yield`` expression evaluates to the event's value.
    Yielding a failed event re-raises its exception inside the generator.
    """

    __slots__ = ("_gen", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._gen = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        self.env._active_proc = self
        while True:
            try:
                if event._ok:
                    next_ev = self._gen.send(
                        event._value if event._value is not _PENDING else None
                    )
                else:
                    # The exception is being handed to the process, so it
                    # no longer needs to crash the run.
                    event._defused = True
                    exc = event._value
                    next_ev = self._gen.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env._schedule(self, URGENT)
                break
            except BaseException as exc:  # generator died
                self._ok = False
                self._value = exc
                self.env._schedule(self, URGENT)
                break

            if not isinstance(next_ev, Event):
                error = RuntimeError(
                    f"process yielded a non-event: {next_ev!r}"
                )
                self._ok = False
                self._value = error
                self.env._schedule(self, URGENT)
                break

            if next_ev.callbacks is not None:
                # Pending or triggered-but-unprocessed: wait for it.
                next_ev.callbacks.append(self._resume)
                self._target = next_ev
                break
            # Already processed: continue immediately with its value.
            event = next_ev

        self.env._active_proc = None


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events."""

    __slots__ = ("_events", "_completed")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._completed: dict[Event, Any] = {}
        for ev in self._events:
            if ev.env is not env:
                raise ValueError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _satisfied(self, n_completed: int, n_total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._completed[event] = event._value
        if self._satisfied(len(self._completed), len(self._events)):
            # Report values of every already-completed event, in the
            # order the events were passed in.
            self.succeed(
                {ev: val for ev, val in self._completed.items()}
            )


class AnyOf(Condition):
    """Triggers when the first constituent event succeeds."""

    __slots__ = ()

    def _satisfied(self, n_completed: int, n_total: int) -> bool:
        return n_completed >= 1


class AllOf(Condition):
    """Triggers when every constituent event has succeeded."""

    __slots__ = ()

    def _satisfied(self, n_completed: int, n_total: int) -> bool:
        return n_completed == n_total


class Environment:
    """The simulation clock and event queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_proc: Optional[Process] = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_proc

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* sim-seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving *generator*."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event.

        Raises the event's exception if it failed and nothing defused it —
        this is how programming errors inside processes surface in tests.
        """
        if not self._queue:
            raise RuntimeError("no more events")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return  # event somehow processed twice; ignore
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        - ``until`` a number: run events up to that time, then set the
          clock to it.
        - ``until`` an :class:`Event`: run until it is processed and
          return its value (raising if it failed).
        - ``until`` ``None``: run until no events remain.
        """
        stop_at: Optional[float] = None
        stop_ev: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_ev = until
            if stop_ev.callbacks is None:  # already processed
                if not stop_ev._ok:
                    raise stop_ev._value
                return stop_ev._value
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until ({stop_at}) is in the past (now={self._now})"
                )

        try:
            if stop_at is None:
                # Hot loop: the body of step() inlined with the queue
                # bound locally.  Semantics are identical; run-until-event
                # is the per-invocation path and call overhead counts.
                queue = self._queue
                pop = heapq.heappop
                while queue:
                    when, _prio, _eid, event = pop(queue)
                    self._now = when
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks is None:
                        continue
                    for cb in callbacks:
                        cb(event)
                    if event is stop_ev:
                        # Identity check instead of a StopSimulation
                        # raise/catch: run-until-event happens once per
                        # sync() and exception unwinding costs more than
                        # one comparison per processed event.
                        if event._ok:
                            return event._value
                        event._defused = True
                        raise event._value
                    if not event._ok and not event._defused:
                        raise event._value
            else:
                while self._queue:
                    if self._queue[0][0] > stop_at:
                        break
                    self.step()
        except StopSimulation as stop:
            return stop.args[0]

        if stop_at is not None:
            self._now = stop_at
        if stop_ev is not None:
            # Queue exhausted before the target event triggered.
            raise RuntimeError(
                "simulation ran out of events before `until` event triggered"
            )
        return None

"""Event-ordering guarantees the protocols rely on."""

import pytest

from repro.sim.kernel import Environment, Timeout


class TestSameTimeOrdering:
    def test_succeed_processes_before_later_scheduled_timeout(self):
        """URGENT (succeed) events beat NORMAL (timeout) events queued
        for the same instant."""
        env = Environment()
        order = []
        ev = env.event()
        ev.callbacks.append(lambda _e: order.append("event"))
        env.timeout(0).callbacks.append(lambda _e: order.append("timeout"))
        ev.succeed()  # scheduled after the timeout, but URGENT
        env.run()
        assert order == ["event", "timeout"]

    def test_process_resume_order_is_creation_order(self):
        env = Environment()
        order = []

        def proc(pid):
            yield env.timeout(1.0)
            order.append(pid)
        for pid in range(5):
            env.process(proc(pid))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_nested_immediate_events_run_same_timestep(self):
        env = Environment()
        hits = []

        def chain(n):
            if n:
                ev = env.event()
                ev.callbacks.append(lambda _e: chain(n - 1))
                ev.succeed()
            hits.append(env.now)
        env.timeout(2.0).callbacks.append(lambda _e: chain(3))
        env.run()
        assert hits == [2.0] * 4

    def test_urgent_events_run_in_trigger_order(self):
        """Not creation order: events created a, b, c and triggered
        c, a, b in one instant run c, a, b, and a process started
        between two triggers takes its first step between them."""
        env = Environment()
        order = []
        events = {name: env.event() for name in "abc"}
        for name, ev in events.items():
            ev.callbacks.append(lambda _e, name=name: order.append(name))

        def starter():
            order.append("start")
            yield env.timeout(1.0)

        def trigger(_e):
            events["c"].succeed()
            env.process(starter())
            events["a"].succeed()
            events["b"].succeed()
        env.timeout(2.0).callbacks.append(trigger)
        env.run()
        assert order == ["c", "start", "a", "b"]

    def test_interrupt_in_creation_instant_lands_after_first_step(self):
        from repro.sim.kernel import Interrupt
        env = Environment()
        log = []

        def victim():
            log.append(("first step", env.now))
            try:
                yield env.timeout(10.0)
            except Interrupt as i:
                log.append((i.cause, env.now))

        def spawn(_e):
            env.process(victim()).interrupt("host crashed")
        env.timeout(3.0).callbacks.append(spawn)
        env.run()
        assert log == [("first step", 3.0), ("host crashed", 3.0)]

    def test_timeout_value_carried(self):
        env = Environment()
        t = env.timeout(1.0, value={"k": 1})
        assert env.run(until=t) == {"k": 1}

    def test_peek_reports_next_event_time(self):
        env = Environment()
        env.timeout(5.0)
        env.timeout(2.0)
        assert env.peek() == 2.0
        env.run()
        assert env.peek() == float("inf")


class TestProcessReturnShapes:
    def test_return_none_by_default(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
        assert env.run(until=env.process(proc())) is None

    def test_yield_from_subgenerator(self):
        env = Environment()

        def inner():
            yield env.timeout(1)
            return 10

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b
        assert env.run(until=env.process(outer())) == 20
        assert env.now == 2.0

    def test_interrupt_during_yield_from(self):
        from repro.sim.kernel import Interrupt
        env = Environment()

        def inner():
            yield env.timeout(100)

        def outer():
            try:
                yield from inner()
            except Interrupt as i:
                return f"stopped: {i.cause}"
        p = env.process(outer())

        def killer():
            yield env.timeout(1)
            p.interrupt("now")
        env.process(killer())
        assert env.run(until=p) == "stopped: now"

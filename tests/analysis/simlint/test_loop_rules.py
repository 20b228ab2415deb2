"""SIM010-SIM013: control-loop safety rule family."""

from repro.analysis.simlint import SimlintConfig
from repro.util.diagnostics import Severity

#: treat the snippet's path as a designated control-loop module.
LOOP_CONFIG = SimlintConfig(control_loop_modules=("pkg/mod.py",))


class TestBareExcept:
    def test_bare_except_flagged_anywhere(self, lint, codes):
        findings = lint("""
            def once():
                try:
                    risky()
                except:
                    pass
        """)
        assert codes(findings) == ["SIM010"]

    def test_named_except_clean(self, lint):
        findings = lint("""
            def once():
                try:
                    risky()
                except ValueError:
                    pass
        """)
        assert findings == []


class TestBroadExceptInGeneratorLoop:
    def test_swallowing_handler_flagged(self, lint, codes):
        findings = lint("""
            def loop(env):
                while True:
                    try:
                        step()
                    except Exception:
                        pass
                    yield env.timeout(1.0)
        """)
        assert "SIM011" in codes(findings)

    def test_interrupt_clause_before_broad_is_clean(self, lint, codes):
        findings = lint("""
            def loop(env):
                while True:
                    try:
                        step()
                    except Interrupt:
                        raise
                    except Exception:
                        pass
                    yield env.timeout(1.0)
        """)
        assert "SIM011" not in codes(findings)

    def test_interrupt_clause_after_broad_still_flagged(self, lint,
                                                        codes):
        # except Exception first catches Interrupt too: order matters.
        findings = lint("""
            def loop(env):
                while True:
                    try:
                        step()
                    except Exception:
                        pass
                    except Interrupt:
                        raise
                    yield env.timeout(1.0)
        """)
        assert "SIM011" in codes(findings)

    def test_reraising_handler_is_clean(self, lint, codes):
        findings = lint("""
            def loop(env):
                while True:
                    try:
                        step()
                    except Exception as exc:
                        if fatal(exc):
                            raise
                    yield env.timeout(1.0)
        """)
        assert "SIM011" not in codes(findings)

    def test_non_generator_function_ignored(self, lint, codes):
        findings = lint("""
            def once():
                for item in [1, 2]:
                    try:
                        step(item)
                    except Exception:
                        pass
        """)
        assert "SIM011" not in codes(findings)


class TestUnguardedDecode:
    def test_unguarded_decode_in_control_loop_flagged(self, lint, codes):
        findings = lint("""
            def loop(env, peer):
                while True:
                    reply = peer.call()
                    state = loads_state(reply)
                    apply(state)
                    yield env.timeout(1.0)
        """, config=LOOP_CONFIG)
        assert "SIM012" in codes(findings)

    def test_try_wrapped_decode_is_clean(self, lint, codes):
        findings = lint("""
            def loop(env, peer):
                while True:
                    reply = peer.call()
                    try:
                        state = loads_state(reply)
                    except StateDecodeError:
                        continue
                    apply(state)
                    yield env.timeout(1.0)
        """, config=LOOP_CONFIG)
        assert "SIM012" not in codes(findings)

    def test_decode_in_handler_body_not_guarded(self, lint, codes):
        # only the try *body* is protected; decoding inside the
        # handler itself can still escape the iteration.
        findings = lint("""
            def loop(env, peer):
                while True:
                    try:
                        fast_path()
                    except CacheMiss:
                        state = loads_state(peer.call())
                    yield env.timeout(1.0)
        """, config=LOOP_CONFIG)
        assert "SIM012" in codes(findings)

    def test_non_control_module_ignored(self, lint, codes):
        findings = lint("""
            def loop(env, peer):
                while True:
                    state = loads_state(peer.call())
                    yield env.timeout(1.0)
        """)
        assert "SIM012" not in codes(findings)


class TestInterruptHandling:
    def test_perpetual_loop_without_interrupt_warned(self, lint):
        findings = lint("""
            def loop(env):
                while True:
                    step()
                    yield env.timeout(1.0)
        """, config=LOOP_CONFIG)
        sim013 = [f for f in findings if f.code == "SIM013"]
        assert len(sim013) == 1
        assert sim013[0].severity == Severity.WARNING

    def test_handled_interrupt_is_clean(self, lint, codes):
        findings = lint("""
            def loop(env):
                try:
                    while True:
                        step()
                        yield env.timeout(1.0)
                except Interrupt:
                    pass
        """, config=LOOP_CONFIG)
        assert "SIM013" not in codes(findings)


class TestHostLoopBodies:
    """A control loop is found in the code: the *body* of a HostLoop."""

    def test_host_loop_body_needs_no_interrupt_handler(self, lint, codes):
        # The primitive owns Interrupt handling, even in a listed module.
        findings = lint("""
            class Service:
                def __init__(self, env, host):
                    self.loop = HostLoop(env, host, self._loop)

                def _loop(self):
                    while True:
                        step()
                        yield self.env.timeout(1.0)
        """, config=LOOP_CONFIG)
        assert "SIM013" not in codes(findings)

    def test_bare_decode_in_host_loop_body_flagged_anywhere(self, lint,
                                                            codes):
        # No module listing needed: default config, unlisted path.
        findings = lint("""
            class Service:
                def __init__(self, env, host, peer):
                    self.loop = HostLoop(env, host, body=self._loop,
                                         on_crash=self.table.clear)

                def _loop(self):
                    while True:
                        state = loads_state(self.peer.call())
                        yield self.env.timeout(1.0)
        """, path="pkg/elsewhere.py")
        assert codes(findings) == ["SIM012"]

    def test_hand_started_loop_in_listed_module_still_warns(self, lint,
                                                            codes):
        findings = lint("""
            class Service:
                def __init__(self, env, host):
                    self.loop = HostLoop(env, host, self._loop)
                    env.process(self._dispatch())

                def _loop(self):
                    while True:
                        yield self.env.timeout(1.0)

                def _dispatch(self):
                    while True:
                        yield self.env.timeout(1.0)
        """, config=LOOP_CONFIG)
        sim013 = [f for f in findings if f.code == "SIM013"]
        assert len(sim013) == 1
        assert "_dispatch" in sim013[0].message

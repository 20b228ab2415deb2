"""The span window, checked against an unbounded oracle.

A :class:`~repro.obs.trace.Tracer` retains only the last
:data:`~repro.obs.trace.SPAN_WINDOW` spans it started.  The state
machine starts root spans, children of any span started so far
(retained or evicted) and orphans whose parent was never recorded, ends
spans and builds the report, with the window set to 8.  The oracle is
the plain list of every span started.  The law:

- the tracer retains exactly the last ``SPAN_WINDOW`` spans started, in
  order, and ``started - evicted`` is what it retains;
- the report classifies every retained trace as the oracle does:
  *connected* when every parent is retained, *truncated* when each
  missing parent was started and evicted, *disconnected* otherwise --
  and the three add up to the trace count.

Three named mutants must each fail it.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.obs import Observability, trace
from repro.obs.trace import TraceContext
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry
from repro.tools.obs_report import build_report

WINDOW = 8

#: a span id no tracer in these runs reaches.
NEVER_STARTED = 10 ** 9

SETTINGS = settings(max_examples=200, stateful_step_count=40,
                    deadline=None, derandomize=True,
                    report_multiple_bugs=False)
#: a mutant only has to fail; its shrunk counterexample is not read.
MUTANT_SETTINGS = settings(SETTINGS, phases=[Phase.generate])


class SpanWindowMachine(RuleBasedStateMachine):
    #: replaces the tracer's span store when set (a mutant's).
    store = None
    report_of = staticmethod(build_report)

    def __init__(self) -> None:
        super().__init__()
        self.hub = Observability(Environment(), MetricRegistry())
        self.tracer = self.hub.tracer
        if self.store is not None:
            self.tracer.spans = self.store()
        self.oracle: list = []

    # -- rules -------------------------------------------------------------
    @rule()
    def start_root(self):
        self.oracle.append(self.tracer.start_span("root"))

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def start_child(self, data):
        parent = data.draw(st.sampled_from(self.oracle))
        self.oracle.append(self.tracer.start_span("child", parent=parent))

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def start_orphan(self, data):
        trace_id = data.draw(st.sampled_from(self.oracle)).trace_id
        self.oracle.append(self.tracer.start_span(
            "orphan", parent=TraceContext(trace_id, NEVER_STARTED)))

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), status=st.sampled_from(["ok", "error"]))
    def end(self, data, status):
        self.tracer.end_span(data.draw(st.sampled_from(self.oracle)), status)

    @rule()
    def report(self):
        retained = self.oracle[-WINDOW:]
        gone = {s.span_id for s in self.oracle[:-WINDOW]}
        groups: dict[int, list] = {}
        for span in retained:
            groups.setdefault(span.trace_id, []).append(span)
        shapes = []
        for spans in groups.values():
            ids = {s.span_id for s in spans}
            missing = {s.parent_id for s in spans
                       if s.parent_id is not None and s.parent_id not in ids}
            shapes.append("connected" if not missing
                          else "truncated" if missing <= gone
                          else "disconnected")
        got = self.report_of(self.hub)["traces"]
        assert {key: got[key] for key in
                ("count", "connected", "truncated", "disconnected",
                 "open_spans")} == {
            "count": len(groups),
            "connected": shapes.count("connected"),
            "truncated": shapes.count("truncated"),
            "disconnected": shapes.count("disconnected"),
            "open_spans": sum(1 for s in retained if not s.finished),
        }
        assert got["connected"] + got["truncated"] + got["disconnected"] \
            == got["count"]
        assert (got["started"], got["retained"], got["evicted"]) == \
            (len(self.oracle), len(retained), len(gone))

    # -- the law's immediate half ------------------------------------------
    @invariant()
    def retains_the_last_window_started(self):
        assert list(self.tracer.spans) == self.oracle[-WINDOW:]

    @invariant()
    def started_and_evicted_add_up(self):
        tracer = self.tracer
        assert tracer.started == len(self.oracle)
        assert tracer.started - tracer.evicted == len(tracer.spans)


@pytest.fixture
def window(monkeypatch):
    monkeypatch.setattr(trace, "SPAN_WINDOW", WINDOW)


def test_span_window_law(window):
    run_state_machine_as_test(SpanWindowMachine, settings=SETTINGS)


# -- mutants -----------------------------------------------------------------

class EvictNewest(list):
    """Full, the store drops its newest span to make room."""

    def append(self, span):
        if len(self) == WINDOW:
            self.pop()
        super().append(span)


def truncated_as_disconnected(hub):
    """A report that cannot tell eviction from a missing parent."""
    rep = build_report(hub)
    traces = rep["traces"]
    traces["disconnected"] += traces["truncated"]
    traces["truncated"] = 0
    return rep


@pytest.mark.parametrize("mutant", [
    {"store": list},
    {"store": EvictNewest},
    {"report_of": staticmethod(truncated_as_disconnected)},
], ids=["unbounded_list", "evict_newest", "truncated_as_disconnected"])
def test_named_mutant_fails_the_law(window, mutant):
    machine = type("MutantMachine", (SpanWindowMachine,), mutant)
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=MUTANT_SETTINGS)

"""The benchmark's own tracer: spans kept in memory, written at exit.

Spans are recorded **from outside the program**: round every call the
drivers make into a layer, and — installed for the traced pass only,
removed afterwards — round the public entry points whose call sites
look them up at call time (``self.network.send(...)``,
``giop.encode_request(...)``, ``self.agent.accept_gossip(...)``).
Nothing private is patched: where the hot path reaches a layer through
pre-bound handles or private names (codec plans memoised on the
operation, ``giop._decode_message_body``, the kernel's inlined loop)
that layer's time is *estimated* as count x drill cost by ``run.py``.

A span is ``(name, start, end, parent, op)``; ``op`` is the id of the
driver op in flight (-1 for background and open-loop work).  A layer's
self time is its spans' duration minus the part their child spans
cover, accumulated as spans close.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    """In-memory span store with on-the-fly self-time accounting."""

    def __init__(self) -> None:
        #: recording gate: patches stay installed across set-up so
        #: bound methods captured there are the wrapped ones, but only
        #: the measured window records.
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (name id, start, end, parent index, op) per span.
        self.spans: list = []
        self._open: list[int] = []        # indices of open spans
        self._covered: list[float] = []   # child time per open span
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._patches: list = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        self._covered.append(0.0)
        return index

    def _exit(self, index: int, nid: int, start: float) -> None:
        end = _now()
        self._open.pop()
        covered = self._covered.pop()
        duration = end - start
        name = self.names[nid]
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        parent = self._open[-1] if self._open else -1
        if parent >= 0:
            self._covered[-1] += duration
        self.spans[index] = (nid, start, end, parent, self.op)

    def wrap(self, name: str, fn):
        """*fn* with a span named *name* round every call while on."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer._enter()
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index, nid, start)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str):
        """Driver-side span (``with tracer.span("driver|env.run")``)."""
        if not self.on:
            yield
            return
        nid = self._name_id(name)
        index = self._enter()
        start = _now()
        try:
            yield
        finally:
            self._exit(index, nid, start)

    # -- patching --------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap ``owner.attr`` for every ``(layer, owner, attr)``."""
        for layer, owner, attr in targets:
            original = owner.__dict__[attr]
            short = owner.__name__.rsplit(".", 1)[-1]   # class or module
            setattr(owner, attr,
                    self.wrap(f"{layer}|{short}.{attr}", original))
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def layer_self_time(self) -> dict:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split("|", 1)[0]] += seconds
        return dict(out)

    def outermost_calls(self, names) -> int:
        """Closed spans among *names* whose parent is not among them:
        one per outermost entry (``invoke`` delegating a oneway to
        ``send_oneway`` counts once)."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        count = 0
        for span in self.spans:
            if span is None or span[0] not in ids:
                continue
            parent = span[3]
            if parent < 0 or self.spans[parent] is None \
                    or self.spans[parent][0] not in ids:
                count += 1
        return count

    def write(self, path) -> None:
        """Columnar JSON: one array per field, names by id."""
        closed = [s for s in self.spans if s is not None]
        origin = closed[0][1] if closed else 0.0
        doc = {
            "names": self.names,
            "fields": ["name", "start_us", "dur_us", "parent", "op"],
            "name": [s[0] for s in closed],
            "start_us": [round((s[1] - origin) * 1e6, 1) for s in closed],
            "dur_us": [round((s[2] - s[1]) * 1e6, 2) for s in closed],
            "parent": [s[3] for s in closed],
            "op": [s[4] for s in closed],
            "self_time_s": dict(self.self_time),
            "calls": dict(self.calls),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def patch_targets() -> list:
    """The public entry points wrapped for a traced pass."""
    from repro.deployment.supervisor import ApplicationSupervisor
    from repro.events.batch_writer import BatchWriter
    from repro.events.bus import EventBus
    from repro.obs.interceptors import MetricsInterceptor, TracingInterceptor
    from repro.orb import giop
    from repro.orb.core import ORB
    from repro.registry.federation.shard import ShardAgent
    from repro.sim.network import Network

    targets = [("sim.network", Network, "send")]
    targets += [("orb.core", ORB, attr) for attr in
                ("invoke", "send_oneway", "send_oneway_fanout",
                 "flush_pipelines")]
    targets += [("orb.giop", giop, attr) for attr in
                ("encode_request", "encode_reply", "encode_multi")]
    targets += [("events", EventBus, "publish"), ("events", EventBus, "flush"),
                ("events", BatchWriter, "flush")]
    targets += [("registry.federation", ShardAgent, attr) for attr in
                ("accept_publish", "accept_gossip", "candidates")]
    targets += [("deployment", ApplicationSupervisor, "run_once")]
    for cls in (TracingInterceptor, MetricsInterceptor):
        targets += [("obs", cls, attr) for attr in
                    ("send_request", "receive_reply", "receive_exception",
                     "receive_request", "finish_request")]
    return targets


#: Span names of the client-side ORB entry points that marshal the
#: arguments once per (outermost) call.
ORB_MARSHAL_SPANS = ("orb.core|ORB.invoke", "orb.core|ORB.send_oneway",
                     "orb.core|ORB.send_oneway_fanout")

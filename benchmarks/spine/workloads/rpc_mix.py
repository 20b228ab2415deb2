"""rpc_mix — typed request/reply on a 3-host LAN star.

Hub servant, two client ORBs alternating; no registry, no events, no
observability.  Closed loop, one call outstanding, round-robin over
three op kinds: the null call (``long -> long``: smallest message, so
per-message cost dominates), the C1 ``Sample`` struct echo (generated
codec) and a ~4 KiB ``octetseq`` echo.  Chosen because the
generated-codec tier, GIOP framing, the ``ORB.invoke`` fast path and
the per-message kernel/``Network.send`` cost do nearly all the work,
and everything ``cscw_session`` leans on (``any``, channels, obs, WAN,
federation) is bypassed.
"""

from __future__ import annotations

import time

from repro.orb.core import ORB, InterfaceDef, Servant, op
from repro.orb.typecodes import (
    sequence_tc,
    struct_tc,
    tc_double,
    tc_long,
    tc_octetseq,
    tc_string,
)
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rng import RngRegistry, derived_stream
from repro.sim.topology import SERVER, star

from spine.measure import chunk_bounds
from spine.workloads import Workload

POINT = struct_tc("Point", [("x", tc_double), ("y", tc_double)])
SAMPLE_TC = struct_tc("Sample", [
    ("id", tc_long),
    ("name", tc_string),
    ("path", sequence_tc(POINT)),
])

ECHO = InterfaceDef("IDL:spine/Echo:1.0", "Echo", operations=[
    op("null", [("n", tc_long)], tc_long),
    op("echo", [("s", SAMPLE_TC)], SAMPLE_TC),
    op("blob", [("b", tc_octetseq)], tc_octetseq),
])

KINDS = ("null", "echo", "blob")
#: distinct pre-generated arguments per kind, cycled through.
POOL = 64


class EchoServant(Servant):
    _interface = ECHO

    def null(self, n):
        return n

    def echo(self, s):
        return s

    def blob(self, b):
        return b


def make_inputs(seed: int) -> dict:
    """Argument pools.  Sizes vary round their nominal value so the
    latency percentiles are taken over a distribution, not three
    constants, and the typical name length is itself drawn from the
    seed, so that distribution is a property of the seed."""
    rng = derived_stream("spine.rpc_mix", seed)
    name_base = int(rng.integers(8, 40))
    samples = []
    for k in range(POOL):
        points = int(rng.integers(14, 19))
        name_len = name_base + int(rng.integers(0, 8))
        samples.append({
            "id": int(rng.integers(0, 2**31 - 1)),
            "name": f"trajectory-{k:03d}-".ljust(name_len, "x")[:name_len],
            "path": [{"x": float(rng.uniform(-1e3, 1e3)),
                      "y": float(rng.uniform(-1e3, 1e3))}
                     for _ in range(points)],
        })
    blobs = [rng.bytes(int(rng.integers(3968, 4225))) for _ in range(POOL)]
    nulls = [int(rng.integers(-2**31, 2**31 - 1)) for _ in range(POOL)]
    return {"null": nulls, "echo": samples, "blob": blobs}


class RpcMix(Workload):
    name = "rpc_mix"
    rate = 24_500.0
    multiple = len(KINDS) * 2      # whole rounds of kinds x clients

    def setup(self) -> None:
        self.inputs = make_inputs(self.seed)
        env = Environment()
        net = Network(env, self.topology(), rngs=RngRegistry(self.seed))
        server = ORB(env, net, "hub")
        self.clients = [ORB(env, net, "h0"), ORB(env, net, "h1")]
        ior = server.adapter("root").activate(EchoServant())
        stubs = [c.stub(ior, ECHO) for c in self.clients]
        # (client, bound stub method, argument pool) per op slot.
        self.slots = []
        for k, kind in enumerate(KINDS):
            for c, client in enumerate(self.clients):
                self.slots.append((client, getattr(stubs[c], kind),
                                   self.inputs[kind]))
        self.mismatches = 0
        self.attach(env, net)

    @staticmethod
    def topology():
        return star(2, hub_profile=SERVER)

    @staticmethod
    def operations() -> dict:
        return dict(ECHO.operations)

    # -- driving -----------------------------------------------------------
    def _call(self, i: int, record) -> None:
        client, method, pool = self.slots[i % len(self.slots)]
        arg = pool[(i // len(self.slots)) % POOL]
        env = self.env
        tracer = self.tracer
        t_wall = time.perf_counter()
        t_sim = env.now
        self.attempted += 1
        try:
            if tracer.on:
                tracer.op = i
                event = method(arg)
                with tracer.span("driver|orb.sync"):
                    result = client.sync(event)
            else:
                result = client.sync(method(arg))
        except Exception:
            self.failed += 1
            return
        if result != arg:
            self.mismatches += 1
        if record is not None:
            self.latencies.append(env.now - t_sim)
            record.append(time.perf_counter() - t_wall)

    def warmup(self) -> None:
        for i in range(self.warm_ops):
            self._call(i, None)
        self.attempted = self.failed = 0

    def run(self, window) -> None:
        base = self.warm_ops
        window.begin()
        for lo, hi in chunk_bounds(self.ops):
            for i in range(base + lo, base + hi):
                self._call(i, window.op_walls)
            window.chunk_done()
        window.finish()

    def verify(self) -> list:
        problems = []
        if self.mismatches:
            problems.append(f"{self.mismatches} replies differ from "
                            "their argument")
        if len(self.latencies) != self.ops:
            problems.append(f"{len(self.latencies)} of {self.ops} calls "
                            "completed")
        return problems

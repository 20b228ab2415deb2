"""The four workloads.  Names are fixed; later issues cite them.

A workload owns its input generator (seeded by ``--seed``, nothing
else), its drivers and its recording servants; the program under test
receives only the generated inputs.  The life of one pass::

    w = make(name, seed, seconds, tracer)
    w.setup()      # world build, deploy, settle
    w.warmup()     # first 2 % of the ops: first-touch codegen is paid here
    w.run(window)  # the measured ops, timed in 20 chunks
    w.verify()     # -> list of failures (empty = outputs correct)
"""

from __future__ import annotations

from spine.measure import WARMUP_SHARE, Counters


class Workload:
    """What ``run.py`` needs from a workload."""

    name = ""
    #: measured ops per wall-second on the reference box; the op count
    #: of a run is this constant times ``--seconds`` (fixed work).
    rate = 1.0
    #: ops must come in multiples of this (e.g. deliveries per tick).
    multiple = 1
    #: operations sent through ``send_oneway_fanout``: one marshalled
    #: body reaches the wire in several frames (see drills.build_corpus).
    marshal_once: tuple = ()

    def __init__(self, seed: int, ops: int, tracer) -> None:
        self.seed = seed
        self.ops = ops
        self.warm_ops = max(self.multiple,
                            int(ops * WARMUP_SHARE) // self.multiple
                            * self.multiple)
        self.tracer = tracer
        #: simulated op latencies: seconds, or (seconds, weight) pairs.
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        #: failed attempts that a driver retried (registry_churn).
        self.retried = 0
        self.env = None
        self.network = None
        self.metrics = None
        self.counters: Counters = None
        #: wall seconds of the Deployer.deploy call in set-up, if any.
        self.deploy_wall_s = 0.0

    # -- life cycle (overridden) -----------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, window) -> None:
        raise NotImplementedError

    def verify(self) -> list:
        raise NotImplementedError

    # -- what the drills replay -------------------------------------------
    @staticmethod
    def topology():
        """A fresh topology of the workload's shape (network drill)."""
        raise NotImplementedError

    @staticmethod
    def operations() -> dict:
        """``operation name -> OperationDef`` for the requests this
        workload is about; captured frames of other operations are
        framed by the GIOP drill but not replayed by the codec drill."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------
    def attach(self, env, network) -> None:
        self.env = env
        self.network = network
        self.metrics = network.metrics
        self.counters = Counters(network.metrics)

    def obs_spans(self) -> int:
        """Spans held by the program's own tracer (0 without obs)."""
        return 0

    def kernel_events(self) -> int:
        # Read-only: the environment's schedule sequence number is the
        # only count of kernel events the program keeps.
        return self.env._eid


def make(name: str, seed: int, seconds: float, tracer) -> Workload:
    from spine.measure import round_ops
    from spine.workloads.cscw_session import CscwSession
    from spine.workloads.event_fanout import EventFanout
    from spine.workloads.registry_churn import RegistryChurn
    from spine.workloads.rpc_mix import RpcMix

    classes = {cls.name: cls for cls in
               (CscwSession, RpcMix, EventFanout, RegistryChurn)}
    cls = classes[name]
    ops = round_ops(cls.rate, seconds, cls.multiple)
    return cls(seed, ops, tracer)

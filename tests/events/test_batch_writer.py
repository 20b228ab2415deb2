"""BatchWriter: size/age flush thresholds."""

import pytest

from repro.events.batch_writer import BatchWriter
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry
from repro.util.errors import ConfigurationError


def make_writer(env, metrics, max_batch, max_age):
    batches = []
    writer = BatchWriter(env, batches.append, max_batch, max_age, metrics)
    return writer, batches


class TestValidation:
    def test_bad_params_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            BatchWriter(env, lambda b: None, 0, 0.05, MetricRegistry())
        with pytest.raises(ConfigurationError):
            BatchWriter(env, lambda b: None, 64, 0.0, MetricRegistry())


class TestFlushThresholds:
    def test_size_threshold_flushes_synchronously(self):
        env = Environment()
        writer, batches = make_writer(env, MetricRegistry(),
                                      max_batch=3, max_age=10.0)
        for i in range(7):
            writer.append(i)
        # No simulated time has passed: two full batches went out on
        # the size threshold alone; the tail waits for its age timer.
        assert batches == [[0, 1, 2], [3, 4, 5]]
        assert writer.pending == 1

    def test_age_threshold_flushes_partial_batch(self):
        env = Environment()
        writer, batches = make_writer(env, MetricRegistry(),
                                      max_batch=100, max_age=0.5)
        writer.append("a")
        writer.append("b")
        env.run(until=0.49)
        assert batches == []
        env.run(until=0.51)
        assert batches == [["a", "b"]]

    def test_age_timer_measures_oldest_item(self):
        env = Environment()
        writer, batches = make_writer(env, MetricRegistry(),
                                      max_batch=100, max_age=1.0)

        def feed():
            writer.append(0)
            yield env.timeout(0.9)
            writer.append(1)   # must NOT push the flush to t=1.9
            yield env.timeout(0.2)

        env.run(until=env.process(feed()))
        assert batches == [[0, 1]]
        assert env.now == pytest.approx(1.1)

    def test_threshold_flush_invalidates_age_timer(self):
        env = Environment()
        metrics = MetricRegistry()
        writer, batches = make_writer(env, metrics,
                                      max_batch=2, max_age=0.5)
        writer.append(1)         # arms the age timer
        writer.append(2)         # size flush
        env.run(until=1.0)       # stale age timer fires: must not re-flush
        assert batches == [[1, 2]]
        assert metrics.get("bus.flushes") == 1

    def test_explicit_flush_delivers_now(self):
        env = Environment()
        metrics = MetricRegistry()
        writer, batches = make_writer(env, metrics,
                                      max_batch=10, max_age=5.0)
        writer.append(1)
        writer.flush()
        assert batches == [[1]]
        assert writer.pending == 0
        env.run(until=10.0)              # the age timer it disarmed
        assert batches == [[1]]
        assert metrics.get("bus.flushed") == 1

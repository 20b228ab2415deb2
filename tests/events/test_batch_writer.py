"""BatchWriter: size/age flush thresholds, drop-oldest bound."""

import pytest

from repro.events.batch_writer import BatchWriter
from repro.sim.kernel import Environment
from repro.sim.stats import MetricRegistry
from repro.util.errors import ConfigurationError


def make_writer(env, metrics, **kwargs):
    batches = []
    writer = BatchWriter(env, batches.append, metrics=metrics,
                         name="bus", **kwargs)
    return writer, batches


class TestValidation:
    def test_bad_params_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            BatchWriter(env, lambda b: None, max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchWriter(env, lambda b: None, max_age=0.0)
        with pytest.raises(ConfigurationError):
            BatchWriter(env, lambda b: None, max_batch=8, capacity=4)


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

    def test_explicit_flush_and_clear(self):
        env = Environment()
        writer, batches = make_writer(env, MetricRegistry(),
                                      max_batch=10, max_age=5.0)
        writer.append(1)
        writer.flush()
        assert batches == [[1]]
        writer.append(2)
        writer.clear()
        env.run(until=10.0)
        assert batches == [[1]]          # cleared items never delivered
        assert writer.pending == 0


class TestOverflow:
    def test_drop_oldest_past_capacity(self):
        env = Environment()
        metrics = MetricRegistry()
        writer = BatchWriter(env, lambda b: None, max_batch=4,
                             max_age=1.0, capacity=4, metrics=metrics,
                             name="bus")
        # The size flush keeps a window below capacity on its own; the
        # bound is what holds memory when it cannot (here: a flush
        # threshold widened past the capacity after construction).
        writer.max_batch = 100
        for i in range(10):
            writer.append(i)
        assert list(writer._buf) == [6, 7, 8, 9]   # newest survive
        assert metrics.get("bus.dropped") == 6


class TestGeneratorFlush:
    def test_generator_callback_runs_as_process(self):
        env = Environment()
        done = []

        def slow_flush(batch):
            yield env.timeout(0.1)
            done.append((env.now, batch))

        writer = BatchWriter(env, slow_flush, max_batch=2, max_age=1.0,
                             metrics=MetricRegistry(), name="bus")
        writer.append(1)
        writer.append(2)
        env.run(until=1.0)
        assert done == [(0.1, [1, 2])]

"""Span-level datagen: one Kafka segment per constant-rate span."""

import pytest

from repro.datagen.rates import (
    ConstantRate,
    SpikeRate,
    StepRate,
    TraceRate,
    UniformRandomRate,
)
from repro.kafka.producer import RateControlledProducer
from repro.kafka.topic import Topic


def topic():
    return Topic("events", 5)


class TestConstantUntil:
    def test_constant_rate_is_constant_forever(self):
        assert ConstantRate(100.0).constant_until(3.0) == float("inf")

    def test_uniform_random_rate_holds_per_segment(self):
        tr = UniformRandomRate(10, 20, hold=10.0, seed=1)
        assert tr.constant_until(0.0) == 10.0
        assert tr.constant_until(9.99) == 10.0
        assert tr.constant_until(10.0) == 20.0

    def test_step_rate_until_next_level(self):
        tr = StepRate.of((0.0, 10.0), (30.0, 20.0))
        assert tr.constant_until(5.0) == 30.0
        assert tr.constant_until(30.0) == float("inf")

    def test_spike_rate_breaks_at_window_edges(self):
        tr = SpikeRate(ConstantRate(10.0), spikes=((20.0, 25.0, 3.0),))
        assert tr.constant_until(0.0) == 20.0
        assert tr.constant_until(20.0) == 25.0
        assert tr.constant_until(25.0) == float("inf")

    def test_trace_rate_steps_at_dt(self):
        tr = TraceRate([5.0, 6.0, 7.0], dt=2.0)
        assert tr.constant_until(1.0) == 2.0
        assert tr.constant_until(4.5) == float("inf")  # clamped tail

    def test_default_disables_fast_path(self):
        class Custom(ConstantRate):
            def constant_until(self, t):  # re-disable
                return super(ConstantRate, self).constant_until(t)

        assert Custom(5.0).constant_until(3.0) == 3.0


class TestCountOnlyProduction:
    """The producer's span-level production (its only mode)."""

    def test_constant_rate_totals_match_per_tick(self):
        trace = ConstantRate(100.0)
        per_tick = sum(trace.records_between(k, k + 1.0) for k in range(120))
        producer = RateControlledProducer(topic(), trace)
        assert producer.produce_until(120.0) == per_tick == 12000

    def test_constant_rate_uses_constant_segments(self):
        t = topic()
        RateControlledProducer(t, ConstantRate(100.0)).produce_until(120.0)
        # One span: one append and one segment per partition.
        assert sum(p.segment_count for p in t.partitions) == 5
        assert sum(p.nonempty_appends for p in t.partitions) == 5

    def test_uniform_band_totals_close_to_per_tick(self):
        trace = UniformRandomRate(7_000, 13_000, hold=10.0, seed=3)
        t = topic()
        producer = RateControlledProducer(t, trace)
        produced = producer.produce_until(300.0)
        # Totals follow the trace integral exactly: one rounding per
        # 10 s hold span ...
        spans = [(10.0 * k, 10.0 * (k + 1)) for k in range(30)]
        assert produced == sum(trace.records_between(a, b) for a, b in spans)
        assert t.total_records() == produced
        # ... and the per-tick integral to within one record per tick.
        per_tick = sum(trace.records_between(k, k + 1.0) for k in range(300))
        assert produced == pytest.approx(per_tick, abs=300)
        # One append per hold span and partition.
        assert t.partitions[0].nonempty_appends == 30

    def test_count_only_is_deterministic(self):
        trace = UniformRandomRate(1_000, 2_000, hold=10.0, seed=9)
        a_topic, b_topic = topic(), topic()
        a = RateControlledProducer(a_topic, trace)
        b = RateControlledProducer(b_topic, trace)
        assert a.produce_until(200.0) == b.produce_until(200.0)
        for p, q in zip(a_topic.partitions, b_topic.partitions):
            assert p.segments == q.segments

    def test_rate_cap_applies_per_span(self):
        producer = RateControlledProducer(topic(), ConstantRate(100.0),
                                          rate_cap=50.0)
        produced = producer.produce_until(10.0)
        assert produced == 500
        assert producer.total_throttled == 500

    def test_incremental_produce_until_advances_spans(self):
        trace = StepRate.of((0.0, 10.0), (5.0, 20.0))
        producer = RateControlledProducer(topic(), trace)
        assert producer.produce_until(5.0) == 50
        assert producer.produce_until(10.0) == 100
        assert producer.produced_until == 10.0

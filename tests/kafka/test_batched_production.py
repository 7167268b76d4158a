"""Differential test: batched Kafka production against a per-span oracle.

:meth:`RateControlledProducer.produce_until` hands all spans of a call
to :meth:`Topic.append_spans`, which fills each partition in one pass.
The oracle below produces span by span: one span per constant-rate
region of the trace (never shorter than a tick), one ``append_uniform``
per span and one ``Partition.append`` per partition, each with its own
overlap check and coalescing step.  Every segment, offset and float must
come out the same, and so must the consumer's view of them.
"""

import bisect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.rates import (
    ConstantRate,
    SineRate,
    SpikeRate,
    StepRate,
    TraceRate,
    UniformRandomRate,
)
from repro.kafka.consumer import DirectStreamConsumer
from repro.kafka.producer import RateControlledProducer
from repro.kafka.topic import Topic


class ReferencePartition:
    """Per-append segment log: the oracle for :class:`Partition`."""

    def __init__(self):
        self.t0, self.t1, self.counts, self.bases = [], [], [], []
        self.end_offset = 0
        self.last_t1 = 0.0
        self.nonempty_appends = 0

    def append(self, t0, t1, count):
        assert count >= 0 and t1 >= t0
        if t0 < self.last_t1 - 1e-9:
            raise ValueError("overlap")
        self.last_t1 = max(self.last_t1, t1)
        if count == 0:
            return
        self.nonempty_appends += 1
        if self.counts:
            pt0, pt1, pcount = self.t0[-1], self.t1[-1], self.counts[-1]
            if t0 == pt1 and count * (pt1 - pt0) == pcount * (t1 - t0):
                self.t1[-1] = t1
                self.counts[-1] = pcount + count
                self.end_offset += count
                return
        self.t0.append(t0)
        self.t1.append(t1)
        self.counts.append(count)
        self.bases.append(self.end_offset)
        self.end_offset += count

    def offset_at(self, t):
        i = bisect.bisect_right(self.t1, t)
        if i == len(self.t0):
            return self.end_offset
        total = self.bases[i]
        if t > self.t0[i]:
            span = self.t1[i] - self.t0[i]
            frac = (t - self.t0[i]) / span if span > 0 else 1.0
            total += int(frac * self.counts[i])
        return total

    def mean_arrival_time(self, start, end):
        total_time = 0.0
        total_count = 0
        i = max(bisect.bisect_right(self.bases, start) - 1, 0)
        while i < len(self.t0) and self.bases[i] < end:
            base, count = self.bases[i], self.counts[i]
            lo = max(start, base)
            hi = min(end, base + count)
            if hi > lo:
                mid_frac = ((lo + hi) / 2.0 - base) / count
                total_time += (
                    self.t0[i] + mid_frac * (self.t1[i] - self.t0[i])
                ) * (hi - lo)
                total_count += hi - lo
            i += 1
        return total_time / total_count


def reference_append_uniform(partitions, t0, t1, count):
    n = len(partitions)
    base, rem = divmod(count, n)
    start = partitions[0].nonempty_appends
    for i, p in enumerate(partitions):
        p.append(t0, t1, base + (1 if (i - start) % n < rem else 0))


def reference_produce_until(state, partitions, trace, t, tick, surge, cap):
    """The span-by-span production loop; ``state`` holds produced_until."""
    produced = 0
    while state["until"] + 1e-12 < t:
        t0 = state["until"]
        end = trace.constant_until(t0)
        t1 = min(t, max(end, t0 + tick))
        # A span ends at the call's end, its constant-rate region's end,
        # or one tick in when that region is shorter than a tick.
        assert t1 in (t, end, t0 + tick)
        assert t1 >= t0 + tick or t1 == t
        want = trace.records_between(t0, t1)
        if surge != 1.0:
            want = int(round(want * surge))
        if cap is not None:
            want = min(want, int(math.floor(cap * (t1 - t0))))
        reference_append_uniform(partitions, t0, t1, want)
        produced += want
        state["until"] = t1
    return produced


def make_trace(kind, rate, seed):
    if kind == "constant":
        return ConstantRate(rate)
    if kind == "uniform":
        return UniformRandomRate(0.5 * rate, 1.5 * rate, hold=7.5, seed=seed)
    if kind == "step":
        return StepRate.of((0.0, rate), (13.3, 0.2 * rate), (41.0, 2.0 * rate))
    if kind == "sine":
        return SineRate(base=rate, amplitude=0.8 * rate, period=23.0)
    if kind == "spike":
        return SpikeRate(ConstantRate(rate), ((9.5, 17.25, 3.0), (30.0, 31.0, 0.5)))
    return TraceRate([rate * (1 + (i % 5)) / 3.0 for i in range(12)], dt=2.5)


class TestBatchedProductionMatchesPerTick:
    @given(
        partitions=st.integers(1, 64),
        kind=st.sampled_from(
            ["constant", "uniform", "step", "sine", "spike", "trace"]
        ),
        # Low rates give ticks with fewer records than partitions.
        rate=st.sampled_from([0.0, 3.0, 17.0, 250.0, 1000.0, 9999.0]),
        tick=st.sampled_from([0.25, 0.7, 1.0, 2.0]),
        surge=st.sampled_from([1.0, 1.0, 0.35, 2.5]),
        cap=st.sampled_from([None, None, 40.0, 800.0]),
        boundaries=st.lists(
            st.floats(0.0, 6.0, allow_nan=False), min_size=1, max_size=12
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=150, deadline=None)
    def test_segments_offsets_and_means_identical(
        self, partitions, kind, rate, tick, surge, cap, boundaries, seed,
    ):
        trace = make_trace(kind, rate, seed)
        topic = Topic("t", partitions)
        producer = RateControlledProducer(topic, trace, tick=tick,
                                          rate_cap=cap)
        producer.set_surge(surge)
        consumer = DirectStreamConsumer(topic)
        ref = [ReferencePartition() for _ in range(partitions)]
        state = {"until": 0.0}
        committed = [0] * partitions
        t = 0.0
        for step in boundaries:
            # Non-integer batch boundaries, some repeated (zero-length).
            t += step
            produced = producer.produce_until(t)
            assert produced == reference_produce_until(
                state, ref, trace, t, tick, surge, cap)
            assert producer.produced_until == state["until"]

            batch = consumer.poll(t)
            total_t, total_n = 0.0, 0
            for i, r in enumerate(ref):
                end = r.offset_at(t)
                assert (batch.starts[i], batch.ends[i]) == (committed[i], end)
                if end > committed[i]:
                    total_t += r.mean_arrival_time(committed[i], end) * (
                        end - committed[i])
                    total_n += end - committed[i]
                committed[i] = end
            expected = total_t / total_n if total_n else t
            assert consumer.mean_arrival_time(batch) == expected

        for p, r in zip(topic.partitions, ref):
            assert [(s.t0, s.t1, s.count, s.base_offset) for s in p.segments] \
                == list(zip(r.t0, r.t1, r.counts, r.bases))
            assert p.end_offset == r.end_offset
            assert p.nonempty_appends == r.nonempty_appends
            for q in (0.0, 0.3 * t, 0.5 * t + 0.01, t, t + 1.0):
                assert p.offset_at(q) == r.offset_at(q)
            for lo, hi in ((0, r.end_offset), (r.end_offset // 3,
                                               r.end_offset // 2 + 1)):
                if lo < hi <= r.end_offset:
                    assert p.mean_arrival_time(lo, hi) == \
                        r.mean_arrival_time(lo, hi)

    def test_append_uniform_is_the_one_tick_case(self):
        a, b = Topic("a", 7), Topic("b", 7)
        ticks = [(0.0, 1.0, 23), (1.0, 2.0, 23), (2.0, 2.5, 3), (2.5, 4.0, 0),
                 (4.0, 5.0, 40)]
        for t0, t1, count in ticks:
            a.append_uniform(t0, t1, count)
        b.append_spans(*zip(*ticks))
        for p, q in zip(a.partitions, b.partitions):
            assert p.segments == q.segments
            assert p.nonempty_appends == q.nonempty_appends

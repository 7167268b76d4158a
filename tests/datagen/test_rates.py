"""Unit tests for rate traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.rates import (
    PAPER_RATE_BANDS,
    ConstantRate,
    SineRate,
    SpikeRate,
    StepRate,
    TraceRate,
    UniformRandomRate,
    paper_rate_trace,
)


class TestConstantRate:
    def test_rate_and_integral(self):
        r = ConstantRate(500.0)
        assert r.rate(3.0) == 500.0
        assert r.records_between(0.0, 4.0) == 2000

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantRate(-1.0)


class TestUniformRandomRate:
    def test_stays_in_band(self):
        r = UniformRandomRate(100.0, 200.0, hold=10.0, seed=5)
        for t in range(0, 500, 7):
            assert 100.0 <= r.rate(float(t)) <= 200.0

    def test_deterministic_given_seed(self):
        a = UniformRandomRate(10, 20, seed=3)
        b = UniformRandomRate(10, 20, seed=3)
        assert [a.rate(t) for t in (0.0, 15.0, 99.0)] == [
            b.rate(t) for t in (0.0, 15.0, 99.0)
        ]

    def test_rate_changes_across_segments(self):
        r = UniformRandomRate(0.0, 1e6, hold=10.0, seed=1)
        rates = {r.rate(t) for t in (0.0, 10.0, 20.0, 30.0, 40.0)}
        assert len(rates) > 1

    def test_rate_constant_within_segment(self):
        r = UniformRandomRate(10, 20, hold=10.0, seed=1)
        assert r.rate(0.0) == r.rate(9.999)

    def test_records_between_consistent_with_rate(self):
        r = UniformRandomRate(100, 100, hold=10.0, seed=1)  # degenerate band
        assert r.records_between(0.0, 25.0) == pytest.approx(2500, abs=1)

    def test_records_between_partial_segments(self):
        r = UniformRandomRate(50, 50, hold=10.0, seed=1)
        assert r.records_between(5.0, 15.0) == pytest.approx(500, abs=1)

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            UniformRandomRate(200.0, 100.0)


class TestStepRate:
    def test_levels(self):
        r = StepRate.of((0.0, 10.0), (100.0, 50.0))
        assert r.rate(50.0) == 10.0
        assert r.rate(100.0) == 50.0
        assert r.rate(500.0) == 50.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            StepRate.of((5.0, 10.0))

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            StepRate.of((0.0, 1.0), (0.0, 2.0))


class TestSineRate:
    def test_oscillates_around_base(self):
        r = SineRate(base=100.0, amplitude=50.0, period=60.0)
        assert r.rate(15.0) == pytest.approx(150.0)
        assert r.rate(45.0) == pytest.approx(50.0)

    def test_never_negative(self):
        with pytest.raises(ValueError):
            SineRate(base=10.0, amplitude=20.0, period=60.0)


class TestSpikeRate:
    def test_multiplier_in_window(self):
        r = SpikeRate(ConstantRate(100.0), spikes=((10.0, 20.0, 3.0),))
        assert r.rate(5.0) == 100.0
        assert r.rate(15.0) == 300.0
        assert r.rate(20.0) == 100.0  # window is half-open

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            SpikeRate(ConstantRate(1.0), spikes=((5.0, 5.0, 2.0),))


class TestTraceRate:
    def test_replays_samples(self):
        r = TraceRate([10.0, 20.0, 30.0], dt=2.0)
        assert r.rate(0.0) == 10.0
        assert r.rate(3.0) == 20.0
        assert r.rate(100.0) == 30.0  # clamps to last

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceRate([])


class TestPaperBands:
    def test_all_four_workloads_present(self):
        assert set(PAPER_RATE_BANDS) == {
            "logistic_regression",
            "linear_regression",
            "wordcount",
            "page_analyze",
        }

    @pytest.mark.parametrize("workload,band", list(PAPER_RATE_BANDS.items()))
    def test_paper_trace_in_band(self, workload, band):
        trace = paper_rate_trace(workload, seed=2)
        lo, hi = band
        for t in (0.0, 33.0, 500.0):
            assert lo <= trace.rate(t) <= hi

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            paper_rate_trace("nope")


def midpoint_reference(trace, t0, t1):
    """The 1-D midpoint rule, one call per interval: the oracle.

    This is ``RateTrace.records_between`` as it was before the block
    method existed, with one scalar ``rate`` call per sub-step.
    """
    if t1 < t0:
        raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
    if t1 == t0:
        return 0
    step = 0.25
    n = max(1, int(math.ceil((t1 - t0) / step)))
    edges = np.linspace(t0, t1, n + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    rates = np.array([trace.rate(float(m)) for m in mids])
    return int(round(float(np.sum(rates * np.diff(edges)))))


def reference(trace, t0, t1):
    """Closed-form traces answer with their own scalar formula."""
    if isinstance(trace, (ConstantRate, UniformRandomRate)):
        return trace.records_between(t0, t1)
    return midpoint_reference(trace, t0, t1)


_rate_values = st.floats(0.0, 2e5, allow_nan=False, allow_infinity=False)


@st.composite
def step_traces(draw):
    gaps = draw(
        st.lists(st.floats(0.01, 300.0), min_size=0, max_size=5)
    )
    starts = [0.0]
    for gap in gaps:
        starts.append(starts[-1] + gap)
    levels = [draw(_rate_values) for _ in starts]
    return StepRate(tuple(zip(starts, levels)))


@st.composite
def spike_traces(draw):
    base = draw(
        st.one_of(step_traces(), _rate_values.map(ConstantRate))
    )
    spikes = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.floats(0.0, 2000.0))
        length = draw(st.floats(0.01, 500.0))
        mult = draw(st.floats(0.1, 4.0))
        spikes.append((start, start + length, mult))
    return SpikeRate(base, tuple(spikes))


traces = st.one_of(
    _rate_values.map(ConstantRate),
    st.builds(
        UniformRandomRate,
        st.just(100.0),
        st.floats(100.0, 2e5),
        hold=st.floats(0.5, 30.0),
        seed=st.integers(0, 50),
    ),
    step_traces(),
    spike_traces(),
    st.builds(
        lambda base, frac, period: SineRate(base, base * frac, period),
        _rate_values,
        st.floats(0.0, 1.0),
        st.floats(1.0, 600.0),
    ),
    st.builds(
        TraceRate,
        st.lists(_rate_values, min_size=1, max_size=12),
        dt=st.floats(0.1, 60.0),
    ),
)


@st.composite
def blocks(draw):
    """Interval rows as a prefetch block builds them, or independent ones.

    In consecutive rows ``t0 + i * iv`` a span can miss ``iv`` by
    rounding, so the sub-step count ``n`` can differ within one block.
    """
    size = draw(st.sampled_from((1, 8, 1024)))
    t0 = draw(
        st.one_of(
            st.floats(0.0, 3000.0),
            st.floats(1e4, 1e7),
            st.sampled_from((0.0, 1e6 + 0.1, 123456.7)),
        )
    )
    if draw(st.booleans()):
        iv = draw(
            st.one_of(
                st.sampled_from((10.0, 0.25, 0.1, 2.5, 4.489, 0.0)),
                st.floats(0.0, 30.0),
            )
        )
        edges = [t0 + i * iv for i in range(size + 1)]
        return edges[:-1], edges[1:]
    spans = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
            min_size=size,
            max_size=size,
        )
    )
    return [t0] * size, [t0 + span for span in spans]


class TestRecordsBetweenMany:
    """The block integral against the 1-D oracle, row by row."""

    @settings(max_examples=50, deadline=None)
    @given(trace=traces, block=blocks())
    def test_block_equals_reference_row_by_row(self, trace, block):
        t0s, t1s = block
        got = trace.records_between_many(t0s, t1s)
        assert got.dtype == np.int64
        assert got.shape == (len(t0s),)
        want = [reference(trace, t0, t1) for t0, t1 in zip(t0s, t1s)]
        assert got.tolist() == want
        assert trace.records_between(t0s[-1], t1s[-1]) == want[-1]

    def test_empty_block(self):
        got = StepRate.of((0.0, 5.0)).records_between_many([], [])
        assert got.tolist() == []

    def test_zero_length_rows(self):
        trace = SineRate(100.0, 30.0, 60.0)
        got = trace.records_between_many([5.0, 5.0, 7.5], [5.0, 7.5, 7.5])
        assert got.tolist() == [0, midpoint_reference(trace, 5.0, 7.5), 0]
        assert trace.records_between(9.0, 9.0) == 0

    def test_mixed_substep_counts_in_one_block(self):
        # The spans t0 + (i+1)*10 - (t0 + i*10) are not all exactly 10.0,
        # so ceil(span / 0.25) is 40 for most rows and 41 for a few: the
        # block must group rows by their own n.
        trace = StepRate.of((0.0, 1000.0), (305.0, 3000.0))
        t0 = 0.1
        edges = [t0 + i * 10.0 for i in range(65)]
        t0s, t1s = edges[:-1], edges[1:]
        counts = {math.ceil((b - a) / 0.25) for a, b in zip(t0s, t1s)}
        assert len(counts) > 1
        got = trace.records_between_many(t0s, t1s).tolist()
        assert got == [midpoint_reference(trace, a, b) for a, b in zip(t0s, t1s)]

    @pytest.mark.parametrize(
        "trace",
        [
            StepRate.of((0.0, 100.0), (10.1, 300.0), (10.3, 50.0)),
            SpikeRate(ConstantRate(100.0), spikes=((10.05, 10.2, 3.0),)),
            SpikeRate(
                StepRate.of((0.0, 10.0), (10.1, 20.0)),
                spikes=((10.12, 10.13, 7.0), (9.9, 10.15, 0.5)),
            ),
        ],
    )
    def test_edges_inside_a_substep(self, trace):
        t0s = [9.9, 10.0, 10.01, 9.0]
        t1s = [10.15, 10.25, 10.6, 11.0]
        got = trace.records_between_many(t0s, t1s).tolist()
        assert got == [midpoint_reference(trace, a, b) for a, b in zip(t0s, t1s)]

    @pytest.mark.parametrize(
        "trace",
        [
            ConstantRate(5.0),
            UniformRandomRate(1.0, 2.0, seed=1),
            StepRate.of((0.0, 5.0)),
            SineRate(10.0, 1.0, 5.0),
        ],
    )
    def test_backwards_interval_raises(self, trace):
        with pytest.raises(ValueError):
            trace.records_between(2.0, 1.0)
        with pytest.raises(ValueError):
            trace.records_between_many([0.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "trace",
        [
            StepRate.of((0.0, 5.0), (3.0, 6.0)),
            SpikeRate(StepRate.of((0.0, 5.0)), spikes=((1.0, 2.0, 2.0),)),
        ],
    )
    def test_negative_time_raises(self, trace):
        with pytest.raises(ValueError):
            midpoint_reference(trace, -1.0, 1.0)
        with pytest.raises(ValueError):
            trace.records_between(-1.0, 1.0)
        with pytest.raises(ValueError):
            trace.records_between_many([0.0, -1.0], [1.0, 1.0])

    def test_sum_order_is_the_1d_pairwise_sum(self):
        # Sub-step products 2**53, 1, 1, ..., 1 (16 sub-steps): a
        # sequential sum loses every 1, numpy's pairwise sum keeps 14 of
        # them.  The block must sum each row as the 1-D call does.
        trace = StepRate.of((0.0, 2.0**55), (0.25, 4.0))
        want = midpoint_reference(trace, 0.0, 4.0)
        assert want == 2**53 + 14
        assert want != int(sum([2.0**53] + [1.0] * 15))
        got = trace.records_between_many([0.0, 0.0, 1.0], [4.0, 4.0, 5.0])
        assert got.tolist() == [want, want, midpoint_reference(trace, 1.0, 5.0)]
        assert trace.records_between(0.0, 4.0) == want

    def test_half_records_round_to_even_per_row(self):
        trace = StepRate.of((0.0, 2.0))
        got = trace.records_between_many([0.0, 0.0, 0.0], [0.25, 0.75, 1.25])
        assert got.tolist() == [0, 2, 2]
        assert got.tolist() == [
            midpoint_reference(trace, 0.0, t1) for t1 in (0.25, 0.75, 1.25)
        ]

    def test_non_finite_span_raises_like_the_scalar_rule(self):
        trace = SineRate(10.0, 1.0, 5.0)
        with pytest.raises(OverflowError):
            trace.records_between(0.0, math.inf)
        with pytest.raises(ValueError):
            trace.records_between_many([0.0, 0.0], [1.0, math.nan])


def _breakpoints(trace):
    """Times where a trace's rate changes: level starts, spike edges."""
    if isinstance(trace, StepRate):
        return [start for start, _ in trace.levels]
    if isinstance(trace, SpikeRate):
        edges = [t for start, end, _ in trace.spikes for t in (start, end)]
        return edges + _breakpoints(trace.base)
    return [0.0]


@st.composite
def traces_and_times(draw):
    """A trace and times that include its breakpoints and their neighbours."""
    trace = draw(traces)
    edges = _breakpoints(trace)
    edges += [math.nextafter(t, math.inf) for t in edges]
    edges += [math.nextafter(t, 0.0) for t in edges]
    times = st.one_of(
        st.sampled_from(edges),
        st.floats(0.0, 3000.0),
        st.floats(0.0, 1e9),
    )
    return trace, draw(st.lists(times, min_size=0, max_size=40))


class TestVectorizedRates:
    """``rates(ts)`` equals the scalar ``rate`` under float ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(case=traces_and_times())
    def test_rates_equal_scalar_rate(self, case):
        trace, ts = case
        try:
            want = [trace.rate(t) for t in ts]
        except ValueError:
            with pytest.raises(ValueError):
                trace.rates(np.array(ts, dtype=float))
            return
        got = trace.rates(np.array(ts, dtype=float))
        assert got.shape == (len(ts),)
        assert got.tolist() == want
        grid = trace.rates(np.array(ts + ts, dtype=float).reshape(2, -1))
        assert grid.tolist() == [want, want]

    @pytest.mark.parametrize(
        "trace",
        [
            ConstantRate(3.0),
            StepRate.of((0.0, 1.0), (5.0, 2.0)),
            SpikeRate(StepRate.of((0.0, 1.0)), spikes=((1.0, 2.0, 3.0),)),
            SineRate(10.0, 2.0, 7.0),
            TraceRate([1.0, 2.0]),
        ],
    )
    def test_nan_maps_as_the_scalar_rate_does(self, trace):
        try:
            want = trace.rate(math.nan)
        except ValueError:
            with pytest.raises(ValueError):
                trace.rates(np.array([1.5, math.nan]))
            return
        got = trace.rates(np.array([1.5, math.nan]))
        assert got[0] == trace.rate(1.5)
        assert got[1] == want or (math.isnan(got[1]) and math.isnan(want))

    def test_step_edges(self):
        trace = StepRate.of((0.0, 10.0), (100.0, 50.0), (200.0, 7.0))
        ts = [0.0, 99.999, 100.0, 150.0, 200.0, 1e9, math.inf]
        want = [10.0, 10.0, 50.0, 50.0, 7.0, 7.0, 7.0]
        assert [trace.rate(t) for t in ts] == want
        assert trace.rates(np.array(ts)).tolist() == want
        # rate(nan) fails every comparison and keeps the first level.
        assert trace.rate(math.nan) == 10.0
        assert trace.rates(np.array(ts + [math.nan])).tolist() == want + [10.0]

    @pytest.mark.parametrize(
        "trace",
        [
            StepRate.of((0.0, 5.0), (3.0, 6.0)),
            SpikeRate(StepRate.of((0.0, 5.0)), spikes=((1.0, 2.0, 2.0),)),
            TraceRate([1.0, 2.0]),
            UniformRandomRate(1.0, 2.0),
        ],
    )
    def test_negative_time_raises(self, trace):
        with pytest.raises(ValueError):
            trace.rate(-0.5)
        with pytest.raises(ValueError):
            trace.rates(np.array([1.0, -0.5]))

"""Input data-rate traces.

The paper evaluates NoStop under *time-varying* input rates: the external
data generator "sends data items at a random rate within a certain range"
(§6.2.2, Fig. 5), with per-workload bands of [7k,13k] (LR), [80k,120k]
(LinReg), [110k,190k] (WordCount) and [170k,230k] (Page Analyze) records
per second.  Rate traces here are deterministic functions of time given a
seed, so experiments are reproducible; all rates are in records/second.

Traces compose: :class:`SpikeRate` wraps another trace to inject traffic
surges (the E-commerce-promotion scenario of §5.5 that triggers NoStop's
coefficient reset).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


#: Sub-step of the midpoint rule that integrates traces without a
#: closed form.
_MIDPOINT_STEP = 0.25


class RateTrace(abc.ABC):
    """A records-per-second arrival rate as a function of time."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at simulation time ``t`` (>= 0)."""

    def rates(self, ts: np.ndarray) -> np.ndarray:
        """:meth:`rate` at every point of ``ts``, in the shape of ``ts``.

        The default calls :meth:`rate` per point.  Subclasses override it
        only where array arithmetic provably equals the scalar rate, so
        both views of a trace agree under float ``==``.
        """
        ts = np.asarray(ts, dtype=float)
        return np.array([self.rate(t) for t in ts.ravel().tolist()]).reshape(
            ts.shape
        )

    def records_between(self, t0: float, t1: float) -> int:
        """Number of records arriving in ``[t0, t1)``.

        The one-row case of :meth:`records_between_many`.  Traces with a
        closed form override this instead, and their blocks apply it row
        by row.
        """
        return int(self.records_between_many([t0], [t1])[0])

    def records_between_many(
        self, t0s: Sequence[float], t1s: Sequence[float]
    ) -> np.ndarray:
        """Records arriving in each ``[t0s[i], t1s[i])``, as an int64 array.

        Integrates the rate with the midpoint rule over ``n = max(1,
        ceil((t1 - t0) / 0.25))`` equal sub-steps per row, in one array
        pass per distinct ``n`` (rows of equal nominal span can differ in
        ``n`` by rounding).  Every row gets exactly the arithmetic of a
        1-D pass over that row alone: the edges are ``np.linspace``'s
        ``i * ((t1 - t0) / n) + t0`` with the endpoint pinned to ``t1``,
        the sum runs along the contiguous last axis (numpy's pairwise
        sum, as for a 1-D array), and each row rounds on its own.
        """
        t0s = np.asarray(t0s, dtype=float)
        t1s = np.asarray(t1s, dtype=float)
        backwards = t1s < t0s
        if backwards.any():
            i = int(np.argmax(backwards))
            raise ValueError(f"t1 ({t1s[i]}) must be >= t0 ({t0s[i]})")
        out = np.zeros(t0s.shape, dtype=np.int64)
        live = np.flatnonzero(t1s != t0s)
        n = np.ceil((t1s[live] - t0s[live]) / _MIDPOINT_STEP)
        if not np.isfinite(n).all():
            math.ceil(n[~np.isfinite(n)][0])  # OverflowError / ValueError
        n = np.maximum(n, 1.0).astype(np.int64)
        counts = sorted(set(n.tolist()))
        for k in counts:
            rows = live if len(counts) == 1 else live[n == k]
            t0 = t0s[rows, None]
            t1 = t1s[rows, None]
            edges = np.arange(k + 1, dtype=float) * ((t1 - t0) / k)
            edges += t0
            edges[:, -1:] = t1
            mids = (edges[:, :-1] + edges[:, 1:]) / 2.0
            widths = edges[:, 1:] - edges[:, :-1]
            sums = np.add.reduce(self.rates(mids) * widths, axis=1)
            out[rows] = [int(round(s)) for s in sums.tolist()]
        return out

    def mean_rate(self, horizon: float) -> float:
        """Average rate over ``[0, horizon)``."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.records_between(0.0, horizon) / horizon

    def constant_until(self, t: float) -> float:
        """Latest time up to which the rate is known constant from ``t``.

        The producer uses this to materialize arrivals in one segment per
        constant-rate span.  Returning ``t`` (the conservative default for
        traces without a closed form, e.g. :class:`SineRate`) makes it
        advance one tick at a time.
        """
        return t


class _ClosedFormRate(RateTrace):
    """A trace whose :meth:`records_between` is a closed form.

    A block applies that closed form row by row, so both calls run the
    same arithmetic.
    """

    @abc.abstractmethod
    def records_between(self, t0: float, t1: float) -> int:
        """Closed-form number of records arriving in ``[t0, t1)``."""

    def records_between_many(
        self, t0s: Sequence[float], t1s: Sequence[float]
    ) -> np.ndarray:
        records_between = self.records_between
        return np.array(
            [
                records_between(t0, t1)
                for t0, t1 in zip(
                    np.asarray(t0s, dtype=float).tolist(),
                    np.asarray(t1s, dtype=float).tolist(),
                )
            ],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class ConstantRate(_ClosedFormRate):
    """Fixed arrival rate — the unrealistic case prior work assumes."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"rate must be >= 0, got {self.value}")

    def rate(self, t: float) -> float:
        return self.value

    def rates(self, ts: np.ndarray) -> np.ndarray:
        return np.full(np.shape(ts), self.value, dtype=float)

    def records_between(self, t0: float, t1: float) -> int:
        if t1 < t0:
            raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
        return int(round(self.value * (t1 - t0)))

    def constant_until(self, t: float) -> float:
        return math.inf


#: Process-wide memo of segment draws, keyed (seed, idx, lo, hi).  The
#: draw is a pure function of the key, so sharing across trace instances
#: is sound — and matters: a sweep builds the same band trace for the
#: optimize cell and every measurement cell of a repeat, and an
#: exact-vs-fast comparison builds it twice; each ``default_rng((seed,
#: idx))`` construction costs ~25µs, which dominates fast-tier runs.
_SEGMENT_MEMO: dict = {}
_SEGMENT_MEMO_MAX = 1 << 20


class UniformRandomRate(_ClosedFormRate):
    """Piecewise-constant rate resampled uniformly in ``[lo, hi]``.

    This is the paper's §6.2.2 generator: every ``hold`` seconds a new
    rate is drawn uniformly at random within the band.  Draws are keyed by
    segment index so that ``rate(t)`` is a pure function of ``t``.
    """

    def __init__(self, lo: float, hi: float, hold: float = 10.0, seed: int = 0) -> None:
        if lo < 0 or hi < lo:
            raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
        if hold <= 0:
            raise ValueError(f"hold must be positive, got {hold}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.hold = float(hold)
        self.seed = int(seed)

    def _segment_rate(self, idx: int) -> float:
        key = (self.seed, idx, self.lo, self.hi)
        cached = _SEGMENT_MEMO.get(key)
        if cached is None:
            if len(_SEGMENT_MEMO) >= _SEGMENT_MEMO_MAX:
                _SEGMENT_MEMO.clear()
            rng = np.random.default_rng((self.seed, idx))
            cached = float(rng.uniform(self.lo, self.hi))
            _SEGMENT_MEMO[key] = cached
        return cached

    def rate(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return self._segment_rate(int(t // self.hold))

    def constant_until(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return (int(t // self.hold) + 1) * self.hold

    def records_between(self, t0: float, t1: float) -> int:
        if t1 < t0:
            raise ValueError(f"t1 ({t1}) must be >= t0 ({t0})")
        total = 0.0
        i0 = int(t0 // self.hold)
        i1 = int(math.ceil(t1 / self.hold))
        for idx in range(i0, max(i1, i0 + 1)):
            seg_start = idx * self.hold
            seg_end = seg_start + self.hold
            overlap = min(t1, seg_end) - max(t0, seg_start)
            if overlap > 0:
                total += overlap * self._segment_rate(idx)
        return int(round(total))


@dataclass(frozen=True)
class StepRate(RateTrace):
    """Rate that jumps between levels at fixed boundaries.

    ``levels`` is a sequence of ``(start_time, rate)`` pairs sorted by
    start time; the first pair must start at 0.
    """

    levels: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("levels must be non-empty")
        starts = [s for s, _ in self.levels]
        if starts[0] != 0:
            raise ValueError("first level must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("level start times must be strictly increasing")
        if any(r < 0 for _, r in self.levels):
            raise ValueError("rates must be >= 0")

    @staticmethod
    def of(*levels: Tuple[float, float]) -> "StepRate":
        return StepRate(tuple(levels))

    def rate(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        current = self.levels[0][1]
        for start, r in self.levels:
            if t >= start:
                current = r
            else:
                break
        return current

    def rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if not (ts >= 0).all():
            # The scalar rule raises for t < 0 and maps nan to level 0.
            return super().rates(ts)
        levels = np.array(self.levels, dtype=float)
        return levels[np.searchsorted(levels[:, 0], ts, side="right") - 1, 1]

    def constant_until(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        for start, _ in self.levels:
            if start > t:
                return start
        return math.inf


@dataclass(frozen=True)
class SineRate(RateTrace):
    """Smooth diurnal-style oscillation around a base rate."""

    base: float
    amplitude: float
    period: float

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base must be >= 0")
        if self.amplitude < 0 or self.amplitude > self.base:
            raise ValueError("need 0 <= amplitude <= base (rates must stay >= 0)")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def rate(self, t: float) -> float:
        return self.base + self.amplitude * math.sin(2.0 * math.pi * t / self.period)


@dataclass(frozen=True)
class SpikeRate(RateTrace):
    """Wrap a base trace with multiplicative surges in given windows.

    Models the "surges in traffic (e.g., E-commerce promotion, spike
    activities)" of §5.5 that must trigger NoStop's coefficient reset.
    ``spikes`` is a tuple of ``(start, end, multiplier)`` windows.
    """

    base: RateTrace
    spikes: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        for start, end, mult in self.spikes:
            if end <= start:
                raise ValueError(f"spike window [{start}, {end}) is empty")
            if mult <= 0:
                raise ValueError(f"spike multiplier must be positive, got {mult}")

    def rate(self, t: float) -> float:
        r = self.base.rate(t)
        for start, end, mult in self.spikes:
            if start <= t < end:
                r *= mult
        return r

    def rates(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        r = self.base.rates(ts)
        for start, end, mult in self.spikes:
            r = np.where((start <= ts) & (ts < end), r * mult, r)
        return r

    def constant_until(self, t: float) -> float:
        limit = self.base.constant_until(t)
        for start, end, _ in self.spikes:
            if start > t:
                limit = min(limit, start)
            if t < end <= limit:
                limit = end
        return limit


class TraceRate(RateTrace):
    """Replay a recorded rate series (piecewise constant at ``dt``)."""

    def __init__(self, samples: Sequence[float], dt: float = 1.0) -> None:
        if not len(samples):
            raise ValueError("samples must be non-empty")
        if dt <= 0:
            raise ValueError("dt must be positive")
        arr = np.asarray(samples, dtype=float)
        if np.any(arr < 0):
            raise ValueError("rates must be >= 0")
        self._samples = arr
        self.dt = float(dt)

    def rate(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        idx = min(int(t // self.dt), len(self._samples) - 1)
        return float(self._samples[idx])

    def constant_until(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        idx = int(t // self.dt)
        if idx >= len(self._samples) - 1:
            # Past the last sample the series clamps to its final value.
            return math.inf
        return (idx + 1) * self.dt


#: The paper's per-workload rate bands (records/second), Fig. 5.
PAPER_RATE_BANDS = {
    "logistic_regression": (7_000, 13_000),
    "linear_regression": (80_000, 120_000),
    "wordcount": (110_000, 190_000),
    "page_analyze": (170_000, 230_000),
}


#: Derived workloads reuse their base workload's paper band.
RATE_BAND_ALIASES = {"windowed_wordcount": "wordcount"}


def paper_rate_trace(workload: str, seed: int = 0, hold: float = 10.0) -> UniformRandomRate:
    """The §6.2.2 uniform-random-band trace for a named paper workload."""
    name = RATE_BAND_ALIASES.get(workload, workload)
    try:
        lo, hi = PAPER_RATE_BANDS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; expected one of "
            f"{sorted(PAPER_RATE_BANDS) + sorted(RATE_BAND_ALIASES)}"
        ) from None
    return UniformRandomRate(lo, hi, hold=hold, seed=seed)

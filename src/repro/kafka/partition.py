"""Kafka partition model.

A partition is an append-only log.  To keep millions of simulated records
cheap, the log stores *segments* — ``(t0, t1, count)`` spans during which
records arrived at a uniform rate — rather than individual messages.
Offsets are exact; arrival timestamps inside a segment are interpolated
linearly, which matches a producer that spreads records evenly over the
production interval.

Lookups are O(log n) via binary search over parallel segment arrays —
the receiver polls every batch boundary for the lifetime of a run, so
linear scans here would dominate whole-experiment cost.

Appends *coalesce*: a segment that is exactly contiguous with the tail
segment and carries exactly the same arrival rate extends it in place
instead of growing the arrays.  A same-rate run of short spans (a trace
with no closed-form constant regions, stepped one tick at a time, or
batch boundaries splitting a constant-rate region) therefore keeps the
log at one segment per rate change, which keeps
:meth:`Partition.mean_arrival_time` (run per partition per batch) away
from long segment scans.  Interpolation inside a merged segment is
identical to the per-span answer because the per-record spacing is
unchanged.  :meth:`Partition.extend` is the one
implementation of the rule: it takes a run of spans in one pass, and a
single :meth:`Partition.append` is its one-span case.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class Segment:
    """``count`` records appended uniformly over ``[t0, t1)``."""

    t0: float
    t1: float
    count: int
    base_offset: int

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"segment end {self.t1} precedes start {self.t0}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.base_offset < 0:
            raise ValueError("base_offset must be >= 0")

    def timestamp_of(self, offset: int) -> float:
        """Arrival time of the record at absolute ``offset``."""
        if not (self.base_offset <= offset < self.base_offset + self.count):
            raise IndexError(f"offset {offset} outside segment")
        if self.count == 1:
            return self.t0
        frac = (offset - self.base_offset) / self.count
        return self.t0 + frac * (self.t1 - self.t0)


class Partition:
    """One ordered, append-only shard of a topic."""

    def __init__(self, partition_id: int) -> None:
        self.partition_id = partition_id
        # Parallel segment arrays (non-empty segments only).
        self._t0: List[float] = []
        self._t1: List[float] = []
        self._counts: List[int] = []
        self._bases: List[int] = []
        self._end_offset = 0
        self._last_t1 = 0.0
        self._nonempty_appends = 0

    @property
    def end_offset(self) -> int:
        """Offset one past the last appended record."""
        return self._end_offset

    @property
    def segment_count(self) -> int:
        """Number of non-empty segments (O(1), unlike ``segments``)."""
        return len(self._counts)

    @property
    def nonempty_appends(self) -> int:
        """Non-empty :meth:`append` calls so far (>= ``segment_count``).

        Unlike ``segment_count`` this is unaffected by coalescing, so it
        is a stable rotation key for round-robining remainders across
        partitions (see :meth:`repro.kafka.topic.Topic.append_uniform`).
        """
        return self._nonempty_appends

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(
            Segment(t0=a, t1=b, count=c, base_offset=o)
            for a, b, c, o in zip(self._t0, self._t1, self._counts, self._bases)
        )

    def append(self, t0: float, t1: float, count: int) -> None:
        """Append ``count`` records spread uniformly over ``[t0, t1)``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if t1 < t0:
            raise ValueError(f"segment end {t1} precedes start {t0}")
        self.extend((t0,), (t1,), (count,), t0, t1)

    def extend(
        self,
        t0s: Sequence[float],
        t1s: Sequence[float],
        counts: Sequence[int],
        lo: float,
        hi: float,
    ) -> None:
        """Append the spans ``[t0s[k], t1s[k])`` of ``counts[k]`` records.

        Same result as one :meth:`append` per span, in one pass.  The
        caller has validated the spans (:meth:`append` and
        :meth:`repro.kafka.topic.Topic.append_spans` do): counts are
        non-negative, no span ends before it starts or starts before an
        earlier one ends, ``lo`` is the least start and ``hi`` the
        greatest end.  Only the overlap with this log's tail is checked.
        """
        if lo < self._last_t1 - 1e-9:
            raise ValueError(
                f"append at t0={lo} overlaps previous segment ending at "
                f"{self._last_t1}"
            )
        if hi > self._last_t1:
            self._last_t1 = hi
        seg_t0 = self._t0
        seg_t1 = self._t1
        seg_counts = self._counts
        # Tail segment in locals; an empty log gets a NaN tail that no
        # span can extend.
        if seg_counts:
            pt0 = seg_t0[-1]
            pt1 = seg_t1[-1]
            pcount = seg_counts[-1]
            pbase = self._bases[-1]
        else:
            pt0 = pt1 = math.nan
            pcount = pbase = 0
        for t0, t1, count in zip(t0s, t1s, counts):
            if not count:
                continue
            # Coalesce a contiguous same-rate extension.  Exact float
            # equality on purpose: the producer reuses the previous
            # span's end as the next start, and cross-multiplied rates
            # are equal without division error when the span counts and
            # durations repeat — any other append keeps its own
            # segment so interpolation never changes.
            if t0 == pt1 and count * (pt1 - pt0) == pcount * (t1 - t0):
                pt1 = t1
                pcount += count
                continue
            if pcount:
                seg_t1[-1] = pt1
                seg_counts[-1] = pcount
            pbase += pcount
            seg_t0.append(t0)
            seg_t1.append(t1)
            seg_counts.append(count)
            self._bases.append(pbase)
            pt0 = t0
            pt1 = t1
            pcount = count
        if pcount:
            seg_t1[-1] = pt1
            seg_counts[-1] = pcount
        self._end_offset = pbase + pcount
        self._nonempty_appends += len(counts) - counts.count(0)

    def offset_at(self, t: float) -> int:
        """Number of records that have arrived strictly before time ``t``."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return offsets_before((self,), t)[0]

    def timestamp_of(self, offset: int) -> float:
        """Arrival time of the record at ``offset``."""
        if not (0 <= offset < self._end_offset):
            raise IndexError(
                f"offset {offset} out of range [0, {self._end_offset})"
            )
        i = bisect.bisect_right(self._bases, offset) - 1
        seg = Segment(
            t0=self._t0[i],
            t1=self._t1[i],
            count=self._counts[i],
            base_offset=self._bases[i],
        )
        return seg.timestamp_of(offset)

    def mean_arrival_time(self, start_offset: int, end_offset: int) -> float:
        """Record-weighted mean arrival time over ``[start, end)`` offsets.

        Used for end-to-end latency accounting: the average delay of a
        batch's records is (output time − mean arrival time).
        """
        if end_offset <= start_offset:
            raise ValueError("empty offset range")
        if end_offset > self._end_offset:
            raise IndexError("end_offset beyond log end")
        return mean_arrival_times(((self, start_offset, end_offset),))[0]


# The two batch-boundary queries walk the segment arrays of many
# partitions in one loop, with no per-partition method dispatch: the
# consumer runs them over every partition at every batch boundary.


def offsets_before(partitions: Iterable[Partition], t: float) -> List[int]:
    """:meth:`Partition.offset_at` of each partition (``t`` >= 0)."""
    bisect_right = bisect.bisect_right
    offsets: List[int] = []
    for p in partitions:
        seg_t1 = p._t1
        # Index of the first segment with t1 > t: all earlier segments
        # are fully arrived; that segment may be partially arrived.
        i = bisect_right(seg_t1, t)
        if i == len(seg_t1):
            offsets.append(p._end_offset)
            continue
        total = p._bases[i]
        t0 = p._t0[i]
        if t > t0:
            span = seg_t1[i] - t0
            frac = (t - t0) / span if span > 0 else 1.0
            total += int(frac * p._counts[i])
        offsets.append(total)
    return offsets


def mean_arrival_times(
    ranges: Iterable[Tuple[Partition, int, int]],
) -> List[float]:
    """:meth:`Partition.mean_arrival_time` of each ``(partition, start,
    end)`` range; every range must be non-empty and inside its log."""
    bisect_right = bisect.bisect_right
    means: List[float] = []
    for p, start, end in ranges:
        seg_t0 = p._t0
        seg_t1 = p._t1
        counts = p._counts
        bases = p._bases
        n = len(bases)
        total_time = 0.0
        total_count = 0
        # First segment overlapping the range.
        i = bisect_right(bases, start) - 1
        if i < 0:
            i = 0
        while i < n and bases[i] < end:
            base = bases[i]
            count = counts[i]
            lo = start if start > base else base
            hi = base + count
            if end < hi:
                hi = end
            if hi > lo:
                # Mean timestamp of offsets [lo, hi) inside a uniform segment.
                mid_frac = ((lo + hi) / 2.0 - base) / count
                total_time += (
                    seg_t0[i] + mid_frac * (seg_t1[i] - seg_t0[i])
                ) * (hi - lo)
                total_count += hi - lo
            i += 1
        means.append(total_time / total_count)
    return means

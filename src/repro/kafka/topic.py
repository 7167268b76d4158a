"""Kafka topic: a named set of partitions.

The paper sets "the number of Kafka partitions to be larger than the
number of cores owned by the entire cluster" to avoid broker-side
bottlenecks (§6.1); :func:`repro.kafka.cluster.KafkaCluster.create_topic`
enforces the same guidance by default.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .partition import Partition


class Topic:
    """A named collection of :class:`Partition` logs."""

    def __init__(self, name: str, num_partitions: int) -> None:
        if not name:
            raise ValueError("topic name must be non-empty")
        if num_partitions < 1:
            raise ValueError(f"need at least one partition, got {num_partitions}")
        self.name = name
        self.partitions: List[Partition] = [
            Partition(i) for i in range(num_partitions)
        ]

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def total_records(self) -> int:
        """Records appended across all partitions."""
        return sum(p.end_offset for p in self.partitions)

    def records_before(self, t: float) -> int:
        """Records that arrived strictly before time ``t``, topic-wide."""
        return sum(p.offset_at(t) for p in self.partitions)

    def append_uniform(self, t0: float, t1: float, count: int) -> None:
        """Append ``count`` records spread evenly over partitions.

        The one-span case of :meth:`append_spans`.
        """
        self.append_spans((t0,), (t1,), (count,))

    def append_spans(
        self,
        t0s: Sequence[float],
        t1s: Sequence[float],
        counts: Sequence[int],
    ) -> None:
        """Append spans: ``counts[k]`` records over ``[t0s[k], t1s[k])``.

        Mirrors the paper's skew-free setup: "The data are sent to each
        Kafka Broker uniformly to avoid data skew."  Each span splits its
        count evenly over partitions; the remainder after integer
        division rotates across partitions keyed by partition 0's
        non-empty appends before the span (coalescing-proof, and
        identical to the pre-coalescing segment count), so no partition
        is systematically favored.

        Equivalent to appending span by span, but each partition is
        filled in one pass over the spans.
        """
        if not (len(t0s) == len(t1s) == len(counts)):
            raise ValueError("t0s, t1s and counts must have equal lengths")
        n = self.num_partitions
        last = -math.inf
        lo = math.inf
        # One row of per-partition counts per span; the remainder goes to
        # the cyclic window of ``rem`` partitions starting at the
        # rotation key.
        rows: List[List[int]] = []
        start = self.partitions[0].nonempty_appends
        for t0, t1, count in zip(t0s, t1s, counts):
            if count < 0:
                raise ValueError(f"count must be >= 0, got {count}")
            if t1 < t0:
                raise ValueError(f"segment end {t1} precedes start {t0}")
            if t0 < last - 1e-9:
                raise ValueError(
                    f"span at t0={t0} overlaps an earlier span ending at {last}"
                )
            if t1 > last:
                last = t1
            if t0 < lo:
                lo = t0
            base, rem = divmod(count, n)
            row = [base] * n
            if rem:
                first = start % n
                head = min(rem, n - first)
                row[first:first + head] = [base + 1] * head
                row[: rem - head] = [base + 1] * (rem - head)
            if row[0]:
                start += 1
            rows.append(row)
        # Transpose to partition-major: each partition takes its column.
        for p, column in zip(self.partitions, zip(*rows)):
            p.extend(t0s, t1s, column, lo, last)

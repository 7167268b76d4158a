"""Direct-stream Kafka consumer.

Models Spark Streaming's direct Kafka integration: at every batch
boundary the receiver asks each partition for the offset range that
arrived during the batch interval, and the batch is exactly the union of
those ranges.  The consumer tracks committed offsets per partition so
records are consumed exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .partition import mean_arrival_times, offsets_before
from .topic import Topic


@dataclass(frozen=True)
class OffsetRange:
    """Offsets ``[start, end)`` consumed from one partition for a batch."""

    partition_id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")

    @property
    def count(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ConsumedBatch:
    """All offset ranges consumed at one batch boundary.

    Partition ``i`` contributed offsets ``[starts[i], ends[i])``.
    ``lag`` is :meth:`DirectStreamConsumer.lag` right after the poll.
    """

    batch_time: float
    starts: Tuple[int, ...]
    ends: Tuple[int, ...]
    lag: int

    @property
    def ranges(self) -> List[OffsetRange]:
        return [
            OffsetRange(pid, start, end)
            for pid, (start, end) in enumerate(zip(self.starts, self.ends))
        ]

    @property
    def total_records(self) -> int:
        return sum(self.ends) - sum(self.starts)


class DirectStreamConsumer:
    """Exactly-once offset-range consumer over a topic."""

    def __init__(self, topic: Topic) -> None:
        self.topic = topic
        self._committed: List[int] = [0] * topic.num_partitions
        self.total_consumed = 0
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default).

        The consumed/lag series carry a ``topic`` label so multi-topic
        runs stay distinguishable; the child is bound once here, keeping
        the poll hot path label-free.
        """
        self._m_consumed = catalog.instrument(
            registry, "repro_kafka_records_consumed_total"
        ).labels(topic=self.topic.name)
        self._m_polls = catalog.instrument(
            registry, "repro_kafka_consumer_polls_total"
        )
        self._m_lag = catalog.instrument(
            registry, "repro_kafka_consumer_lag_records"
        ).labels(topic=self.topic.name)

    @property
    def committed_offsets(self) -> List[int]:
        return list(self._committed)

    def lag(self) -> int:
        """Records appended but not yet consumed (input-queue backlog)."""
        return sum(
            p.end_offset - self._committed[p.partition_id]
            for p in self.topic.partitions
        )

    def poll(self, batch_time: float) -> ConsumedBatch:
        """Consume everything that arrived strictly before ``batch_time``."""
        if batch_time < 0:
            raise ValueError(f"t must be >= 0, got {batch_time}")
        partitions = self.topic.partitions
        starts = tuple(self._committed)
        ends = offsets_before(partitions, batch_time)
        lag = 0
        for p, start, end in zip(partitions, starts, ends):
            if end < start:
                raise RuntimeError(
                    f"partition {p.partition_id}: offset went backwards "
                    f"({end} < committed {start})"
                )
            # The lag() gauge, computed in the same pass.
            lag += p.end_offset - end
        self._committed = ends
        batch = ConsumedBatch(batch_time, starts, tuple(ends), lag)
        consumed = sum(ends) - sum(starts)
        self.total_consumed += consumed
        self._m_polls.inc()
        self._m_consumed.inc(consumed)
        self._m_lag.set(lag)
        return batch

    def mean_arrival_time(self, batch: ConsumedBatch) -> float:
        """Record-weighted mean arrival time of a consumed batch.

        Falls back to the batch time for empty batches.
        """
        ranges = [
            (p, start, end)
            for p, start, end in zip(self.topic.partitions, batch.starts, batch.ends)
            if end > start
        ]
        if not ranges:
            return batch.batch_time
        total_t = 0.0
        total_n = 0
        for (_, start, end), mean in zip(ranges, mean_arrival_times(ranges)):
            total_t += mean * (end - start)
            total_n += end - start
        return total_t / total_n

"""In-memory span recorder for the benchmark's traced run.

The traced run patches the public functions of each simulator layer with
timing wrappers from this file; nothing inside ``repro`` is changed.
Every wrapped call becomes one span (name, start, end, parent) tagged
with the trace id of the unit it ran in.  A span's *self time* is its
duration minus the time its direct child spans cover, so the self times
of all spans of a unit, root included, add up to the unit's wall time.

Spans stay in memory until :meth:`SpanRecorder.chrome_trace` renders
them as Chrome trace-event JSON, which Perfetto opens.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name of the span that wraps one whole unit.  Its self time is the
#: unit's wall time not covered by any layer span.
UNIT_SPAN = "unit"

CountFn = Callable[[Any], int]


class SpanRecorder:
    """Collects spans, per-name self times, call counts and work counts."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index, trace_id)``; parent -1 = root.
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.trace_id = ""
        self._stack: List[int] = []
        self._child: List[float] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Tuple[str, CountFn]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped so each call records one span.

        ``count`` is an optional ``(counter_name, fn(result) -> int)``
        pair that adds a work count measured from the call's result.
        """
        spans = self.spans
        stack = self._stack
        child = self._child
        self_time = self.self_time
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # type: ignore[arg-type]
            child.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent >= 0:
                    child[parent] += duration
                self_time[name] += duration - child[index]
                calls[name] += 1
                spans[index] = (name, start, end, parent, self.trace_id)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def run_unit(self, trace_id: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span of a new trace."""
        if self._stack:
            raise RuntimeError("run_unit called inside an open span")
        self.trace_id = trace_id
        return self.wrap(fn, UNIT_SPAN)()

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        tids: Dict[str, int] = {}
        events = []
        for index, (name, start, end, parent, trace_id) in enumerate(
            self.spans
        ):
            tid = tids.setdefault(trace_id, len(tids) + 1)
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "trace": trace_id},
            })
        for trace_id, tid in tids.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": trace_id},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata,
        }


_MISSING = object()


@contextlib.contextmanager
def patched(
    replacements: Sequence[Tuple[Any, str, Callable]],
) -> Iterator[None]:
    """Set class attributes for the duration of the block, then restore.

    Attributes that were inherited rather than defined on the owner are
    deleted again on exit, so the class falls back to its base.
    """
    saved = []
    try:
        for owner, attr, new in replacements:
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _job_tasks(job) -> int:
    return sum(len(stage.tasks) for stage in job.stages)


def layer_targets() -> List[Tuple[str, Any, str, Optional[Tuple[str, CountFn]]]]:
    """The public layer functions the traced run wraps.

    Each entry is ``(span_name, owner_class, attribute, count)``.  Span
    names follow ``layer.function``; tuner spans are
    ``tuners.<registered name>.ask|observe``.
    """
    from repro.cluster.resource_manager import ResourceManager
    from repro.core.pause import PauseRule
    from repro.core.system import SimulatedSparkSystem
    from repro.datagen.generator import DataGenerator
    from repro.engine.task_scheduler import TaskScheduler
    from repro.fast.context import FastStreamingContext
    from repro.fast.engine import FastBatchEngine
    from repro.kafka.consumer import DirectStreamConsumer
    from repro.streaming.context import StreamingContext
    from repro.streaming.listener import StreamingListener
    from repro.workloads.base import Workload

    targets = [
        ("datagen.advance_to", DataGenerator, "advance_to", None),
        ("kafka.poll", DirectStreamConsumer, "poll", None),
        ("kafka.mean_arrival_time", DirectStreamConsumer,
         "mean_arrival_time", None),
        ("workloads.build_job", Workload, "build_job",
         ("workloads.tasks", _job_tasks)),
        ("engine.run_job", TaskScheduler, "run_job", None),
        ("streaming.advance_one_batch", StreamingContext,
         "advance_one_batch", None),
        ("streaming.listener", StreamingListener, "on_batch_completed", None),
        ("cluster.scale_to", ResourceManager, "scale_to", None),
        ("core.apply_configuration", SimulatedSparkSystem,
         "apply_configuration", None),
        ("core.collect", SimulatedSparkSystem, "collect", None),
        ("core.pause", PauseRule, "record", None),
        ("core.pause", PauseRule, "should_pause", None),
        ("fast.advance_one_batch", FastStreamingContext,
         "advance_one_batch", None),
        ("fast.batch_proc_times", FastBatchEngine, "batch_proc_times", None),
    ]
    for cls in tuner_classes():
        for verb in ("ask", "observe"):
            targets.append((f"tuners.{cls.name}.{verb}", cls, verb, None))
    return targets


def tuner_classes() -> List[type]:
    """Every registered tuner class, in registry-name order."""
    from repro.tuners import Tuner, tuner_names

    found = {}
    pending = list(Tuner.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        found[cls.name] = cls
    return [found[name] for name in tuner_names()]


def traced_layers(recorder: SpanRecorder):
    """Context manager wrapping every layer target into ``recorder``.

    All originals are resolved before any patch is applied, so a
    subclass that inherits a wrapped method is wrapped once, not twice.
    """
    targets = layer_targets()
    originals = [getattr(owner, attr) for _, owner, attr, _ in targets]
    return patched([
        (owner, attr, recorder.wrap(original, name, count))
        for (name, owner, attr, count), original in zip(targets, originals)
    ])

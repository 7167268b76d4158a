"""Rate-controlled Kafka producer.

The external data generator of §6.1 "sends data to Kafka Brokers at
varying data rates" with a uniform spread over partitions.  The producer
advances with simulation time: calling :meth:`produce_until` materializes
all records implied by the rate trace since the last call, one span per
constant-rate region of the trace (the rate-process view of a producer:
the paper's generator changes rate, it does not tick).

A producer-side ``rate_cap`` models the paper's note that "the input data
rate could also be restricted in the streaming data processing system to
avoid instantaneous surge rates (e.g., by controlling the Kafka producing
rate)" (§6.2.2) — and is the knob the back-pressure baseline actuates.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.datagen.rates import RateTrace
from repro.obs import catalog
from repro.obs.registry import NOOP_REGISTRY, MetricsRegistry

from .topic import Topic


class RateControlledProducer:
    """Feed a topic from a rate trace, one span per constant-rate region.

    ``tick`` is the shortest span: a region shorter than a tick, and every
    step of a trace with no closed-form constant spans (e.g.
    :class:`repro.datagen.rates.SineRate`), is produced tick by tick.
    """

    def __init__(
        self,
        topic: Topic,
        trace: RateTrace,
        tick: float = 1.0,
        rate_cap: Optional[float] = None,
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {rate_cap}")
        self.topic = topic
        self.trace = trace
        self.tick = float(tick)
        self.rate_cap = rate_cap
        self.surge = 1.0
        self._produced_until = 0.0
        self.total_produced = 0
        self.total_throttled = 0
        self.instrument(NOOP_REGISTRY)

    def instrument(self, registry: MetricsRegistry) -> None:
        """Bind telemetry instruments (no-op registry by default).

        Both series carry a ``topic`` label, bound once here so the
        production loop stays label-free.
        """
        self._m_produced = catalog.instrument(
            registry, "repro_kafka_records_produced_total"
        ).labels(topic=self.topic.name)
        self._m_throttled = catalog.instrument(
            registry, "repro_kafka_records_throttled_total"
        ).labels(topic=self.topic.name)

    @property
    def produced_until(self) -> float:
        """Simulation time up to which records have been materialized."""
        return self._produced_until

    def set_rate_cap(self, cap: Optional[float]) -> None:
        """Change the producer-side throttle (None removes it)."""
        if cap is not None and cap <= 0:
            raise ValueError(f"rate_cap must be positive, got {cap}")
        self.rate_cap = cap

    def set_surge(self, multiplier: float) -> None:
        """Multiply the trace rate (chaos data-skew burst; 1.0 = normal).

        Applied on top of the configured trace, before the rate cap, so a
        burst can both inflate batches and trip the back-pressure
        throttle — the two ways a real skew event hurts.
        """
        if multiplier <= 0:
            raise ValueError(f"surge multiplier must be positive, got {multiplier}")
        self.surge = float(multiplier)

    def produce_until(self, t: float) -> int:
        """Materialize all arrivals in ``[produced_until, t)``.

        Each span runs from its start to the end of the trace's
        constant-rate region (:meth:`RateTrace.constant_until`), but never
        shorter than a tick and never past ``t``.  The call's spans are
        computed first, then handed to the topic in one
        :meth:`Topic.append_spans` call, which fills each partition in a
        single pass.  Returns the number of records produced by this
        call.  Throttled records (above ``rate_cap``) are counted in
        ``total_throttled`` and dropped, modeling an upstream queue we do
        not simulate — exactly the data-loss risk the paper warns
        unstable systems incur.
        """
        if t < self._produced_until:
            raise ValueError(
                f"produce_until({t}) precedes already-produced time "
                f"{self._produced_until}"
            )
        t0s: List[float] = []
        t1s: List[float] = []
        wants: List[int] = []
        trace = self.trace
        tick = self.tick
        surge = self.surge
        cap = self.rate_cap
        t0 = self._produced_until
        while t0 + 1e-12 < t:
            # A sub-tick region integrates across its boundary.
            t1 = min(t, max(trace.constant_until(t0), t0 + tick))
            want = trace.records_between(t0, t1)
            if surge != 1.0:
                want = int(round(want * surge))
            if cap is not None:
                allowed = int(math.floor(cap * (t1 - t0)))
                if want > allowed:
                    self.total_throttled += want - allowed
                    self._m_throttled.inc(want - allowed)
                    want = allowed
            t0s.append(t0)
            t1s.append(t1)
            wants.append(want)
            t0 = t1
        self.topic.append_spans(t0s, t1s, wants)
        self._produced_until = t0
        produced = sum(wants)
        self.total_produced += produced
        if produced:
            self._m_produced.inc(produced)
        return produced

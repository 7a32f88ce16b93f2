"""Kafka consumer/producer workload (paper Sec. 7.4, Fig. 9).

Kafka worker threads *poll*: each consumer wakes on its poll cycle,
drains whatever messages accumulated, processes them as one batch and
sleeps again. That cycle structure — a few concurrently-polling
workers with random phases — is what yields the large all-idle
residency the paper measures (47 % at 8 % utilization) despite
continuous message flow.

The two paper operating points are exposed as presets:

* ``low``  — ~8 % utilization, ~47 % PC1A opportunity;
* ``high`` — ~16 % utilization, ~15 % PC1A opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.units import MS, US
from repro.workloads.base import (
    InjectTarget,
    OpenLoopArrivals,
    Request,
    Workload,
    workload_rng,
)


@dataclass(frozen=True)
class KafkaParams:
    """One Kafka operating point."""

    label: str
    n_workers: int
    poll_interval_ns: int
    #: Mean messages drained per poll, per worker.
    batch_messages_mean: float
    per_message_ns: int
    batch_base_ns: int
    #: Interval jitter fraction (desynchronizes worker phases).
    jitter: float = 0.2
    #: Workers sharing one poll phase. Consumers in one group wake on
    #: aligned timeouts at low rate (fewer groups => more overlap =>
    #: more all-idle time); at higher throughput the cycles drift
    #: apart (more groups).
    phase_groups: int = 4

    @property
    def message_rate_per_s(self) -> float:
        """Aggregate message throughput across workers."""
        return (self.n_workers * self.batch_messages_mean * 1e9 / self.poll_interval_ns)

    @property
    def mean_batch_service_ns(self) -> float:
        """Mean core occupancy of one poll batch."""
        return self.batch_base_ns + self.batch_messages_mean * self.per_message_ns

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Predicted processor utilization."""
        busy_per_worker = self.mean_batch_service_ns / self.poll_interval_ns
        return self.n_workers * busy_per_worker / n_cores


KAFKA_PRESETS: dict[str, KafkaParams] = {
    # ~8 % utilization: 4 workers x (100us + 150 msg x 2us) / 2 ms,
    # poll cycles aligned (one phase group) -> ~47 % all-idle.
    "low": KafkaParams(
        label="low",
        n_workers=4,
        poll_interval_ns=2 * MS,
        batch_messages_mean=150.0,
        per_message_ns=2 * US,
        batch_base_ns=100 * US,
        jitter=0.28,
        phase_groups=1,
    ),
    # ~15 % utilization: heavier batches on a longer cycle, phases
    # drifting apart -> ~13 % all-idle (paper: 15 %).
    "high": KafkaParams(
        label="high",
        n_workers=4,
        poll_interval_ns=3 * MS,
        batch_messages_mean=525.0,
        per_message_ns=2 * US,
        batch_base_ns=100 * US,
        jitter=0.05,
        phase_groups=3,
    ),
}


class _Poller:
    """One worker's poll batches on a fixed grid anchored at its phase.

    Jitter perturbs each cycle but does not accumulate, so workers in a
    phase group stay aligned indefinitely (like timer wheels). Times
    are kept relative to the stream's start: the next tick and the
    last poll.
    """

    __slots__ = ("_params", "_kind", "_tick_ns", "_polled_ns")

    def __init__(self, params: KafkaParams, worker: int, phase_ns: int):
        self._params = params
        self._kind = f"kafka-poll-w{worker}"
        self._tick_ns = phase_ns
        self._polled_ns = 0

    def next_gap_ns(self, rng: np.random.Generator) -> int:
        params = self._params
        jitter_ns = int(
            params.jitter * params.poll_interval_ns * (2.0 * rng.random() - 1.0)
        )
        self._tick_ns += params.poll_interval_ns
        gap_ns = max(1, self._tick_ns + jitter_ns - self._polled_ns)
        self._polled_ns += gap_ns
        return gap_ns

    def batch(self, rng: np.random.Generator) -> Request:
        params = self._params
        messages = int(rng.poisson(params.batch_messages_mean))
        service_ns = params.batch_base_ns + messages * params.per_message_ns
        return Request(
            kind=self._kind,
            service_ns=max(1, service_ns),
            wire_bytes=max(64, messages * 256),
            response_bytes=64,
            dram_bytes=max(4_096, messages * 1_024),
        )


class KafkaWorkload(Workload):
    """Poll-cycle batch generator with N desynchronized workers."""

    name = "kafka"

    def __init__(self, preset: str | KafkaParams = "low"):
        if isinstance(preset, str):
            if preset not in KAFKA_PRESETS:
                raise KeyError(
                    f"unknown Kafka preset {preset!r}; have {sorted(KAFKA_PRESETS)}"
                )
            preset = KAFKA_PRESETS[preset]
        self.params = preset

    @property
    def offered_qps(self) -> float:
        """Batch-request rate (one request per worker poll)."""
        return self.params.n_workers * 1e9 / self.params.poll_interval_ns

    def expected_utilization(self, n_cores: int = 10) -> float:
        """Predicted processor utilization for this preset."""
        return self.params.expected_utilization(n_cores)

    def start(self, sim: Simulator, target: InjectTarget) -> None:
        phase_rng = workload_rng(sim, f"{self.name}-phases")
        groups = max(1, min(self.params.phase_groups, self.params.n_workers))
        phases = [
            int(phase_rng.uniform(0, self.params.poll_interval_ns))
            for _ in range(groups)
        ]
        for worker in range(self.params.n_workers):
            poller = _Poller(self.params, worker, phases[worker % groups])
            OpenLoopArrivals(
                sim,
                target.inject,
                poller.batch,
                poller.next_gap_ns,
                workload_rng(sim, f"{self.name}-{worker}"),
            )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "preset": self.params.label,
            "offered_qps": self.offered_qps,
            "message_rate_per_s": self.params.message_rate_per_s,
            "expected_utilization": self.expected_utilization(),
        }

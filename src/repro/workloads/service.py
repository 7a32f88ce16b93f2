"""Service-time models: how long a request occupies a core.

The load-calibrated model deserves explanation, because it encodes a
real phenomenon rather than a curve fit for its own sake. The paper's
Fig. 6(a) shows that the *effective* per-request core occupancy of
Memcached falls as load rises — the classic effect of NAPI polling
and interrupt coalescing amortizing the per-wakeup kernel cost over
larger batches. We model it as an exponential decay of the mean
occupancy with offered rate::

    mean(qps) = floor + span * exp(-qps / decay)

calibrated against the paper's residency data (see
:class:`~repro.workloads.memcached.MemcachedWorkload` for the fitted
constants). Individual samples around that mean are exponential.
"""

from __future__ import annotations

import math

import numpy as np

from repro.units import US


class ServiceModel:
    """Samples per-request core occupancy in nanoseconds."""

    def mean_ns(self, offered_qps: float) -> float:
        """Mean occupancy at a given offered load."""
        raise NotImplementedError

    def sample_ns(self, rng: np.random.Generator, offered_qps: float) -> int:
        """Sample one request's occupancy."""
        raise NotImplementedError


class FixedService(ServiceModel):
    """Deterministic service time."""

    def __init__(self, service_ns: int):
        if service_ns <= 0:
            raise ValueError(f"service time must be positive, got {service_ns}")
        self.service_ns = int(service_ns)

    def mean_ns(self, offered_qps: float) -> float:
        return float(self.service_ns)

    def sample_ns(self, rng: np.random.Generator, offered_qps: float) -> int:
        return self.service_ns


class ExponentialService(ServiceModel):
    """Exponentially distributed service with a fixed mean."""

    def __init__(self, mean_service_ns: float):
        if mean_service_ns <= 0:
            raise ValueError(f"mean must be positive, got {mean_service_ns}")
        self.mean_service_ns = float(mean_service_ns)

    def mean_ns(self, offered_qps: float) -> float:
        return self.mean_service_ns

    def sample_ns(self, rng: np.random.Generator, offered_qps: float) -> int:
        return max(1, int(rng.exponential(self.mean_service_ns)))


class LognormalService(ServiceModel):
    """Log-normal service: heavy-ish tail, typical of OLTP queries."""

    def __init__(self, median_ns: float, sigma: float = 0.6):
        if median_ns <= 0:
            raise ValueError(f"median must be positive, got {median_ns}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.median_ns = float(median_ns)
        self.sigma = sigma
        self._log_median = math.log(self.median_ns)

    def mean_ns(self, offered_qps: float) -> float:
        return self.median_ns * math.exp(self.sigma**2 / 2)

    def sample_ns(self, rng: np.random.Generator, offered_qps: float) -> int:
        return max(1, int(rng.lognormal(self._log_median, self.sigma)))


class LoadCalibratedService(ServiceModel):
    """Per-request occupancy that shrinks with load (batching effect).

    Parameters are in microseconds / QPS for readability:
    ``mean(qps) = floor_us + span_us * exp(-qps / decay_qps)``.
    """

    def __init__(self, floor_us: float, span_us: float, decay_qps: float):
        if floor_us <= 0 or span_us < 0 or decay_qps <= 0:
            raise ValueError("calibration constants must be positive")
        self.floor_us = floor_us
        self.span_us = span_us
        self.decay_qps = decay_qps

    def mean_ns(self, offered_qps: float) -> float:
        mean_us = self.floor_us + self.span_us * math.exp(-offered_qps / self.decay_qps)
        return mean_us * US

    def sample_ns(self, rng: np.random.Generator, offered_qps: float) -> int:
        return max(1, int(rng.exponential(self.mean_ns(offered_qps))))

    def utilization(self, offered_qps: float, n_cores: int) -> float:
        """Predicted processor utilization at an offered load."""
        if n_cores < 1:
            raise ValueError(f"need at least one core, got {n_cores}")
        return offered_qps * self.mean_ns(offered_qps) * 1e-9 / n_cores

"""Windowed estimators feeding the control plane's decisions.

Two observables drive every controller:

* the **pooled p99** of recent end-to-end latencies (server latency
  plus the one-way network and balancer hops), compared against
  ``fleet.slo_p99_ns`` — an exact percentile over a fixed-capacity
  ring of the most recent completions, not a sketch, so serial and
  parallel sweeps see bit-identical values;
* the **arrival-rate / mean-service estimate** per SleepScale
  (PAPERS.md: arxiv 1404.5121): per-tick counts folded into an EWMA,
  giving the joint speed/sleep grid search its offered-load operand.

Both are plain-data objects (preallocated list, ints, floats) so the
cluster checkpoint walker snapshots and restores them in place like
any other component state.
"""

from __future__ import annotations

#: Completions the pooled-p99 ring retains. 512 spans several control
#: periods at the loads the bench drives while keeping the per-tick
#: sort negligible; the estimator is windowed by *count*, so its
#: horizon self-scales with load (busy fleets look at a shorter past).
LATENCY_RING_CAPACITY = 512

#: EWMA smoothing for the per-tick arrival-rate / service estimates.
EWMA_ALPHA = 0.3


class LatencyWindow:
    """Exact percentile over the last N recorded latencies."""

    def __init__(self, capacity: int = LATENCY_RING_CAPACITY):
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        # Preallocated ring: the checkpoint walker refills lists in
        # place, so the buffer must never be reallocated mid-run.
        self.ring = [0] * capacity
        self.fill = 0
        self.cursor = 0
        self.recorded = 0

    def record(self, latency_ns: int) -> None:
        """Push one end-to-end latency sample."""
        self.ring[self.cursor] = latency_ns
        self.cursor = (self.cursor + 1) % self.capacity
        if self.fill < self.capacity:
            self.fill += 1
        self.recorded += 1

    def p99(self) -> int | None:
        """The window's p99 (rank rule of :meth:`percentile`); None while empty."""
        return self.percentile(99.0)

    def percentile(self, pct: float) -> int | None:
        """The window's ``pct`` percentile: a recorded sample, not interpolated.

        Returns the sorted window's sample at 0-based index
        ``int(fill * pct / 100)``, clamped to the window. That is one
        rank above nearest-rank whenever ``fill * pct / 100`` is whole:
        over 1..100, p99 is 100 and p50 is 51 (nearest-rank gives 99
        and 50). The SLO check reads this value, so the rule stays.
        """
        if self.fill == 0:
            return None
        ordered = sorted(self.ring[: self.fill])
        rank = max(0, min(self.fill - 1, int(self.fill * pct / 100.0)))
        return ordered[rank]


class ArrivalEstimator:
    """EWMA of offered load: arrival rate and mean service demand.

    The balancer tap calls :meth:`observe` per routed request with the
    request's *nominal* service time (pre-P-state scaling, so the
    estimate is an invariant of the controller's own actuation). The
    control tick calls :meth:`advance` once per period to fold the
    tick's counts into the smoothed estimates.
    """

    def __init__(self, alpha: float = EWMA_ALPHA):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.tick_arrivals = 0
        self.tick_service_ns = 0
        self.rate_per_ns = 0.0
        self.mean_service_ns = 0.0
        self.primed = False

    def observe(self, service_ns: int) -> None:
        """One request routed this tick."""
        self.tick_arrivals += 1
        self.tick_service_ns += service_ns

    def advance(self, period_ns: int) -> None:
        """Fold the finished tick into the EWMA and reset its counts."""
        rate = self.tick_arrivals / period_ns
        if self.tick_arrivals:
            service = self.tick_service_ns / self.tick_arrivals
        else:
            # An empty tick says nothing about per-request demand;
            # decay only the rate.
            service = self.mean_service_ns
        if not self.primed:
            self.rate_per_ns = rate
            self.mean_service_ns = service
            self.primed = True
        else:
            alpha = self.alpha
            self.rate_per_ns += alpha * (rate - self.rate_per_ns)
            self.mean_service_ns += alpha * (service - self.mean_service_ns)
        self.tick_arrivals = 0
        self.tick_service_ns = 0

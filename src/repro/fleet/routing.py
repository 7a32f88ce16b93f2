"""Power-aware request routing across a fleet of servers.

The cluster's load balancer is the policy knob the paper's datacenter
framing turns on: *where* requests land decides how long each server's
all-idle periods get, and therefore how much package idle (PC1A/PC6)
the fleet can actually harvest. SleepScale and the subsystem-level
energy-proportionality line of work both show routing and per-server
sleep states interact strongly; these policies reproduce the two ends
of that trade:

* ``round-robin`` — the classic even spread; every server stays
  lukewarm, fragmenting package idleness fleet-wide.
* ``least-outstanding`` — classic load balancing on queue depth;
  latency-oriented, power-oblivious.
* ``power-aware-pack`` — consolidate onto the lowest-numbered servers
  up to a per-server concurrency watermark, so the remaining servers
  see long uninterrupted idle and reach deep package states.
* ``power-aware-spread`` — deliberately rotate across the least-busy
  servers, the adversarial baseline that maximizes wake fan-out
  (best per-request queueing, worst package idleness).

A policy is a **pure function** ``choose(state, request) -> index``
over the read-only :class:`~repro.fleet.state.FleetState` array view —
one numpy pass per decision, no per-server Python object walks, no
hidden mutation (the balancer advances ``state.cursor`` after the
route). Policies run once per request, so they call the ndarray
methods (``a.argmin()``, about 0.3 µs) rather than the ``np.argmin``
wrappers (about 2 µs); results and tie-breaks are the same. See
``docs/fleet.md`` ("Adding a policy") for the contract.

The balancer adds a configurable ``dispatch_latency_ns`` to every
routed request (the ToR hop plus the balancer's own decision time),
so the latency cost of indirection is part of the measured
end-to-end distribution rather than an invisible idealization.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.fleet.state import FleetState
from repro.server.machine import ServerMachine
from repro.sim.engine import Simulator
from repro.workloads.base import Request

#: Policy signature: a pure decision over the fleet's array state.
PolicyFn = Callable[[FleetState, "Request | None"], int]

#: Outstanding-count sentinel that pushes unroutable servers past any
#: real queue depth or watermark in the masked policy scans.
_UNROUTABLE_PENALTY = np.int64(1) << 62


def _masked_outstanding(state: FleetState) -> "np.ndarray | None":
    """Outstanding counts with unroutable servers pushed to infinity.

    Returns ``None`` when the controller holds *every* server out —
    the policies then fall back to the unmasked scan rather than
    dropping the request (the control plane guarantees this cannot happen
    in steady state; it is reachable only transiently).
    """
    if state.n_unroutable >= state.n_servers:
        return None
    masked = state.outstanding.copy()
    masked[state.unroutable] = _UNROUTABLE_PENALTY
    return masked


def _round_robin(state: FleetState, request: "Request | None") -> int:
    """The classic even spread: cycle the cursor across the fleet."""
    if state.n_unroutable:
        candidates = (~state.unroutable).nonzero()[0]
        if len(candidates):
            start = state.cursor % state.n_servers
            pos = int(candidates.searchsorted(start))
            if pos == len(candidates):
                pos = 0
            return int(candidates[pos])
    return state.cursor % state.n_servers


def _least_outstanding(state: FleetState, request: "Request | None") -> int:
    """Fewest in-flight requests wins; ties go to the lowest index."""
    if state.n_unroutable:
        masked = _masked_outstanding(state)
        if masked is not None:
            return int(masked.argmin())
    return int(state.outstanding.argmin())


def _power_aware_pack(state: FleetState, request: "Request | None") -> int:
    """Fill the lowest-numbered servers first.

    A server only spills once it holds a full watermark of concurrent
    work, so the tail of the fleet sees unbroken idle. With every
    server at the watermark, fall back to least-outstanding.
    """
    outstanding = state.outstanding
    if state.n_unroutable:
        masked = _masked_outstanding(state)
        if masked is not None:
            outstanding = masked
    below = outstanding < state.pack_watermark
    index = int(below.argmax())
    if below[index]:
        return index
    return int(outstanding.argmin())


def _power_aware_spread(state: FleetState, request: "Request | None") -> int:
    """Least outstanding with a rotating tie-break.

    Consecutive requests land on different equally-idle servers —
    every server keeps waking, by design.
    """
    outstanding = state.outstanding
    if state.n_unroutable:
        masked = _masked_outstanding(state)
        if masked is not None:
            outstanding = masked
    low = outstanding[outstanding.argmin()]
    candidates = (outstanding == low).nonzero()[0]
    offsets = (candidates - state.cursor) % state.n_servers
    return int(candidates[offsets.argmin()])


#: The policy registry; ``ROUTING_POLICIES`` (the validated name
#: tuple) is derived from it and mirrored into the ``fleet.routing``
#: platform-property row (a pinned test fails if the two drift).
POLICY_FUNCTIONS: dict[str, PolicyFn] = {
    "round-robin": _round_robin,
    "least-outstanding": _least_outstanding,
    "power-aware-pack": _power_aware_pack,
    "power-aware-spread": _power_aware_spread,
}

ROUTING_POLICIES = tuple(POLICY_FUNCTIONS)


class LoadBalancer:
    """Routes one arrival stream across the fleet's machines.

    All bookkeeping lives in the shared :class:`FleetState` arrays:
    outstanding-request accounting is incremented at routing time and
    decremented by each machine's completion hook, so it survives
    measurement-window resets and never double-counts requests still
    in flight across a window boundary. The policy itself is the pure
    function ``POLICY_FUNCTIONS[policy]``.

    ``on_wake``/``on_drained`` are the park-manager hooks
    (:class:`~repro.fleet.cluster.FleetMachine` installs them): wake
    fires before a request is dispatched to a parked server, drained
    fires when a server's outstanding count returns to zero.
    """

    def __init__(
        self,
        sim: Simulator,
        machines: Sequence[ServerMachine],
        state: FleetState,
        policy: str = "round-robin",
        dispatch_latency_ns: int = 0,
    ):
        if policy not in POLICY_FUNCTIONS:
            raise ValueError(
                f"unknown routing policy {policy!r}; have {ROUTING_POLICIES}"
            )
        if not machines:
            raise ValueError("a load balancer needs at least one machine")
        if dispatch_latency_ns < 0:
            raise ValueError(
                f"dispatch latency cannot be negative: {dispatch_latency_ns}"
            )
        self.sim = sim
        self.machines = list(machines)
        self.state = state
        self.policy = policy
        self._choose = POLICY_FUNCTIONS[policy]
        self.dispatch_latency_ns = int(dispatch_latency_ns)
        self.dispatched = 0
        self.on_wake: Callable[[int], None] | None = None
        self.on_drained: Callable[[int], None] | None = None
        #: Optional control-plane observer (``observe_route`` /
        #: ``observe_complete``); None keeps the legacy fast path.
        self.control_tap = None
        for index, machine in enumerate(self.machines):
            machine.on_request_complete = self._completion_hook(index)

    def retarget(
        self, policy: str, dispatch_latency_ns: int, pack_watermark: int
    ) -> None:
        """Re-point a (freshly restored) balancer at new routing knobs.

        The cluster recycle path uses this so one warm fleet serves
        every cell that shares its per-server configs, whatever the
        routing policy, dispatch latency or watermark of the cell —
        those knobs configure the balancer only, never the machines.
        ``pack_watermark`` is the resolved value
        (:meth:`~repro.fleet.cluster.ClusterConfig.resolved_pack_watermark`).
        """
        if policy not in POLICY_FUNCTIONS:
            raise ValueError(
                f"unknown routing policy {policy!r}; have {ROUTING_POLICIES}"
            )
        if dispatch_latency_ns < 0:
            raise ValueError(
                f"dispatch latency cannot be negative: {dispatch_latency_ns}"
            )
        self.policy = policy
        self._choose = POLICY_FUNCTIONS[policy]
        self.dispatch_latency_ns = int(dispatch_latency_ns)
        self.state.pack_watermark = pack_watermark

    # -- array views (balancer-owned state lives in FleetState) ------------
    @property
    def outstanding(self) -> np.ndarray:
        """Per-server in-flight requests (int64 array view)."""
        return self.state.outstanding

    @property
    def routed(self) -> np.ndarray:
        """Per-server routed tallies since the last reset (int64 view)."""
        return self.state.routed

    @property
    def pack_watermark(self) -> int:
        return self.state.pack_watermark

    def _completion_hook(self, index: int) -> Callable[[Request], None]:
        outstanding = self.state.outstanding

        def on_complete(request: Request) -> None:
            left = outstanding[index] - 1
            outstanding[index] = left
            if self.control_tap is not None:
                self.control_tap.observe_complete(index, request)
            if left == 0 and self.on_drained is not None:
                self.on_drained(index)

        return on_complete

    # -- policy ------------------------------------------------------------
    def pick(self) -> int:
        """Index of the machine the next request is routed to.

        Applies the policy function and advances the rotation cursor —
        the one piece of bookkeeping the pure policies delegate.
        """
        index = self._choose(self.state, None)
        self.state.cursor = index + 1
        return index

    # -- dispatch ----------------------------------------------------------
    def route(self, request: Request) -> int:
        """Route one request; returns the chosen machine index."""
        state = self.state
        index = self._choose(state, request)
        state.cursor = index + 1
        state.routed[index] += 1
        state.outstanding[index] += 1
        self.dispatched += 1
        if self.control_tap is not None:
            self.control_tap.observe_route(index, request)
        if state.parked[index] and self.on_wake is not None:
            self.on_wake(index)
        machine = self.machines[index]
        if self.dispatch_latency_ns == 0:
            machine.inject(request)
        else:
            self.sim.schedule(self.dispatch_latency_ns, machine.inject, request)
        return index

    def reset_counters(self) -> None:
        """Zero the routed/dispatched tallies (measurement boundary).

        Outstanding counts and the parked mask are live state, not a
        measurement, and are deliberately left alone.
        """
        self.state.reset_counters()
        self.dispatched = 0

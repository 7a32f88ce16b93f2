"""State residency counters.

The paper obtains C-state residencies from hardware residency
reporting counters (Sec. 6, [40]). :class:`ResidencyCounter` is the
simulator equivalent: it attributes every nanosecond of simulated
time to exactly one state label, supports measurement windows via
:meth:`reset`, and counts transitions (used by the performance model,
which multiplies PC1A transition counts by the transition cost).
"""

from __future__ import annotations

from collections import defaultdict

from repro.sim.engine import Simulator


class ResidencyCounter:
    """Attributes simulated time to one state label at a time."""

    def __init__(self, sim: Simulator, initial_state: str):
        self.sim = sim
        self.state = initial_state
        self._since = sim.now
        self._residency_ns: dict[str, int] = defaultdict(int)
        self._transitions: dict[tuple[str, str], int] = defaultdict(int)
        self._window_start = sim.now

    def enter(self, state: str) -> None:
        """Switch to ``state`` now; a no-op when already in it.

        Accounting is deferred: elapsed time is attributed only when
        the clock actually advanced, so repeated transitions at one
        timestamp (package entry/exit cascades) batch into plain label
        updates with no bookkeeping work.
        """
        old = self.state
        if state == old:
            return
        now = self.sim.now
        since = self._since
        if now > since:
            self._residency_ns[old] += now - since
            self._since = now
        self._transitions[(old, state)] += 1
        self.state = state

    def sync(self) -> None:
        """Attribute elapsed time to the current state."""
        now = self.sim.now
        if now > self._since:
            self._residency_ns[self.state] += now - self._since
            self._since = now

    def residency_ns(self, state: str) -> int:
        """Time spent in ``state`` during the current window."""
        self.sync()
        return self._residency_ns.get(state, 0)

    def total_ns(self) -> int:
        """Length of the current measurement window."""
        return self.sim.now - self._window_start

    def fraction(self, state: str) -> float:
        """Fraction of the window spent in ``state`` (0 when empty)."""
        total = self.total_ns()
        if total == 0:
            return 0.0
        return self.residency_ns(state) / total

    def fractions(self) -> dict[str, float]:
        """Residency fraction per state observed in the window."""
        self.sync()
        total = self.total_ns()
        if total == 0:
            return {}
        return {s: ns / total for s, ns in self._residency_ns.items()}

    def transitions(self, src: str | None = None, dst: str | None = None) -> int:
        """Number of transitions, optionally filtered by endpoint."""
        return sum(
            count
            for (a, b), count in self._transitions.items()
            if (src is None or a == src) and (dst is None or b == dst)
        )

    def entries(self, state: str) -> int:
        """Number of times ``state`` was entered during the window."""
        return self.transitions(dst=state)

    def reset(self) -> None:
        """Start a fresh measurement window (state is preserved)."""
        self._residency_ns.clear()
        self._transitions.clear()
        self._since = self.sim.now
        self._window_start = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResidencyCounter(state={self.state!r})"

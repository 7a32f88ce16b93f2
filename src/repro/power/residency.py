"""State residency counters.

The paper obtains C-state residencies from hardware residency
reporting counters (Sec. 6, [40]). :class:`ResidencyCounter` is the
simulator equivalent: it attributes every nanosecond of simulated
time to exactly one state label and supports measurement windows via
:meth:`reset`.

A component whose draw is a function of its state (a core, an IO link,
a memory controller, a DRAM device) gives its counter its
:class:`~repro.power.meter.PowerChannel`: one :meth:`enter` then both
attributes time to the old state and integrates the old draw, at the
same instant, so the two accountings cannot drift apart.
"""

from __future__ import annotations

from collections import defaultdict

from repro.power.meter import PowerChannel
from repro.sim.engine import Simulator

#: Nanoseconds per second; the same int :class:`PowerChannel` divides by.
from repro.units import S as _NS_PER_S


class ResidencyCounter:
    """Attributes simulated time to one state label at a time.

    Parameters
    ----------
    sim, initial_state:
        Driving simulator and the state at construction.
    channel:
        The power channel of the component whose state this counts,
        if its draw changes with that state: :meth:`enter` then sets
        the draw too.
    """

    def __init__(
        self,
        sim: Simulator,
        initial_state: str,
        channel: PowerChannel | None = None,
    ):
        self.sim = sim
        self.state = initial_state
        self.channel = channel
        self._since = sim.now
        self._residency_ns: dict[str, int] = defaultdict(int)
        self._window_start = sim.now

    def enter(self, state: str, power_w: float | None = None) -> None:
        """Switch to ``state`` now; a no-op when already in it.

        With ``power_w`` the counter's channel draws ``power_w`` from
        now on, integrated exactly as
        :meth:`PowerChannel.set_power` would; without it the draw is
        left as it is. Draws come from validated power specs, so no
        sign check runs here.

        Accounting is deferred: elapsed time and energy are attributed
        only when the clock actually advanced, so repeated transitions
        at one timestamp (package entry/exit cascades) batch into plain
        label updates with no bookkeeping work.
        """
        old = self.state
        if state == old:
            return
        now = self.sim.now
        since = self._since
        if now > since:
            self._residency_ns[old] += now - since
            self._since = now
        self.state = state
        if power_w is not None:
            # PowerChannel.set_power, inlined: the channel keeps its own
            # checkpoint, which meter readouts also advance. A counter
            # given a draw was given a channel.
            channel: PowerChannel = self.channel  # type: ignore[assignment]
            last = channel._last_ns
            if now > last:
                channel._energy_j += channel._power_w * ((now - last) / _NS_PER_S)
                channel._last_ns = now
            channel._power_w = power_w

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

    def reset(self) -> None:
        """Start a fresh measurement window (state is preserved)."""
        self._residency_ns.clear()
        self._since = self.sim.now
        self._window_start = self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResidencyCounter(state={self.state!r})"

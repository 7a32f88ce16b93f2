"""Per-component power channels integrated into energy over sim time.

Every hardware model owns one or more :class:`PowerChannel` objects.
A channel holds the component's *current* power draw in watts; the
meter integrates power over simulated time into joules whenever the
draw changes (exact piecewise-constant integration — no sampling
error). RAPL domains are computed by summing channels tagged with the
same domain label.

Accounting is deferred: a channel only integrates when simulated time
has actually advanced past its last checkpoint, so repeated draw
updates at one timestamp (common during multi-step package entry/exit
flows) collapse into a single overwrite. Machine-level readouts go
through :meth:`PowerMeter.readout`, one pass over all channels instead
of a filter-and-sum per domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator

#: Nanoseconds per second; bound to a module global so the inlined
#: hot-path integration divides by the exact same int as
#: :func:`repro.units.ns_to_s`.
from repro.units import S as _NS_PER_S


class PowerChannel:
    """One component's power draw, integrated into energy.

    Channels are created through :meth:`PowerMeter.channel`; the
    ``domain`` tag groups channels into RAPL-style readout domains
    (``"package"``, ``"dram"``).
    """

    __slots__ = ("name", "domain", "_sim", "_power_w", "_energy_j", "_last_ns")

    def __init__(self, sim: Simulator, name: str, domain: str, power_w: float):
        if power_w < 0:
            raise ValueError(f"power must be non-negative, got {power_w}")
        self._sim = sim
        self.name = name
        self.domain = domain
        self._power_w = float(power_w)
        self._energy_j = 0.0
        self._last_ns = sim.now

    @property
    def power_w(self) -> float:
        """Current draw in watts."""
        return self._power_w

    def set_power(self, power_w: float) -> None:
        """Change the draw; past draw is integrated up to now first.

        Same-timestamp updates batch for free: no integration work
        happens unless the clock actually advanced past the last
        checkpoint, so a burst of draw changes inside one event (a
        multi-step package entry flow) costs one overwrite each.

        Callers pass draws from power specs, which reject a negative
        field when they are built, so no sign check runs here.
        """
        now = self._sim.now
        last = self._last_ns
        if now > last:
            self._energy_j += self._power_w * ((now - last) / _NS_PER_S)
            self._last_ns = now
        self._power_w = power_w

    def add_energy(self, energy_j: float) -> None:
        """Account a discrete energy event (e.g. a DRAM burst)."""
        if energy_j < 0:
            raise ValueError(f"energy must be non-negative, got {energy_j}")
        self._energy_j += energy_j

    def sync(self) -> None:
        """Integrate the draw up to the current simulation time."""
        now = self._sim.now
        last = self._last_ns
        if now > last:
            self._energy_j += self._power_w * ((now - last) / _NS_PER_S)
            self._last_ns = now

    @property
    def energy_j(self) -> float:
        """Energy consumed since creation (or the last reset), in joules."""
        self.sync()
        return self._energy_j

    def reset(self) -> None:
        """Zero the accumulated energy (start of a measurement window)."""
        self.sync()
        self._energy_j = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PowerChannel({self.name!r}, {self._power_w:.3f} W)"


@dataclass(frozen=True)
class DomainReadout:
    """One domain's instantaneous draw and accumulated energy."""

    power_w: float
    energy_j: float


class PowerMeter:
    """Registry of all power channels in a simulated machine."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._channels: dict[str, PowerChannel] = {}
        self._by_domain: dict[str, list[PowerChannel]] | None = None

    def channel(self, name: str, domain: str, power_w: float = 0.0) -> PowerChannel:
        """Create (and register) a new uniquely named channel."""
        if name in self._channels:
            raise ValueError(
                f"duplicate power channel {name!r} on this meter; "
                "machines sharing one meter must register their channels "
                "under distinct prefixes (ServerMachine(channel_prefix=...))"
            )
        channel = PowerChannel(self.sim, name, domain, power_w)
        self._channels[name] = channel
        self._by_domain = None  # registration invalidates the domain cache
        return channel

    def __getitem__(self, name: str) -> PowerChannel:
        return self._channels[name]

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def _domain_map(self) -> dict[str, list[PowerChannel]]:
        """Channels grouped by domain tag, in registration order."""
        cached = self._by_domain
        if cached is None:
            cached = {}
            for channel in self._channels.values():
                cached.setdefault(channel.domain, []).append(channel)
            self._by_domain = cached
        return cached

    def channels(self, domain: str | None = None) -> list[PowerChannel]:
        """All channels, optionally filtered by domain tag."""
        if domain is None:
            return list(self._channels.values())
        return list(self._domain_map().get(domain, ()))

    def sync_all(self) -> None:
        """Integrate every channel up to the current simulation time."""
        now = self.sim.now
        for channel in self._channels.values():
            last = channel._last_ns
            if now > last:
                channel._energy_j += channel._power_w * ((now - last) / _NS_PER_S)
                channel._last_ns = now

    def readout(self) -> dict[str, DomainReadout]:
        """Per-domain draw and energy, in one pass over all channels.

        Accumulation per domain follows channel registration order —
        the same order (and therefore the same float rounding) as
        summing :meth:`channels` sequentially — so a readout is exactly
        consistent with per-domain :meth:`energy_j` calls.
        """
        self.sync_all()
        power: dict[str, float] = {}
        energy: dict[str, float] = {}
        for channel in self._channels.values():
            domain = channel.domain
            power[domain] = power.get(domain, 0.0) + channel._power_w
            energy[domain] = energy.get(domain, 0.0) + channel._energy_j
        return {
            domain: DomainReadout(power_w=power[domain], energy_j=energy[domain])
            for domain in power
        }

    def as_arrays(self, domain: str | None = None) -> dict[str, np.ndarray]:
        """Vectorized snapshot: names, draws and energies as arrays.

        For bulk consumers (benchmark trajectories, analysis
        notebooks) that want numpy math over the whole channel set
        without N attribute lookups per metric.
        """
        # One fused integration pass instead of a sync() call (with
        # its repeated attribute lookups) per channel; syncing the
        # other domains too is free when their clocks are caught up.
        self.sync_all()
        chans = self.channels(domain)
        return {
            "name": np.array([c.name for c in chans]),
            "domain": np.array([c.domain for c in chans]),
            "power_w": np.fromiter(
                (c._power_w for c in chans), dtype=np.float64, count=len(chans)
            ),
            "energy_j": np.fromiter(
                (c._energy_j for c in chans), dtype=np.float64, count=len(chans)
            ),
        }

    def power_w(self, domain: str | None = None) -> float:
        """Instantaneous total draw of a domain (or the whole machine)."""
        total = 0.0
        for channel in self.channels(domain):
            total += channel._power_w
        return total

    def energy_j(self, domain: str | None = None) -> float:
        """Total energy of a domain since the last reset, in joules."""
        total = 0.0
        for channel in self.channels(domain):
            channel.sync()
            total += channel._energy_j
        return total

    def reset(self) -> None:
        """Zero every channel's accumulated energy (one fused pass)."""
        self.sync_all()
        for channel in self._channels.values():
            channel._energy_j = 0.0

    def average_power_w(self, domain: str | None, window_ns: int) -> float:
        """Average power over a window ending now, given its length."""
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        return self.energy_j(domain) / (window_ns / _NS_PER_S)

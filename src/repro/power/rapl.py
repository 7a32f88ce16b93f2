"""A RAPL-like energy counter interface over the power meter.

The paper reads ``RAPL.Package`` and ``RAPL.DRAM`` (Sec. 5.4, [23, 27,
55]). Real RAPL exposes a 32-bit energy-status counter in units of
2^-ESU joules that wraps around; software samples it and accumulates
deltas. We reproduce that interface faithfully — including the wrap —
so analysis code written against RAPL semantics works unchanged, and
so tests can exercise the wrap-handling logic.
"""

from __future__ import annotations

from enum import Enum

from repro.power.meter import PowerMeter
from repro.units import ns_to_s


class RaplDomain(str, Enum):
    """RAPL readout domains available on the modelled server."""

    PACKAGE = "package"
    DRAM = "dram"


class RaplInterface:
    """Emulates MSR_PKG_ENERGY_STATUS / MSR_DRAM_ENERGY_STATUS."""

    #: Energy status unit: counts of 2^-14 J ~ 61 uJ (typical server ESU).
    ENERGY_UNIT_J = 2.0**-14
    #: The hardware counter is 32 bits wide and wraps silently.
    COUNTER_MASK = (1 << 32) - 1

    def __init__(self, meter: PowerMeter, domain_prefix: str = ""):
        self.meter = meter
        #: Per-machine domain prefix on a shared fleet meter (a
        #: machine's RAPL only ever reads its own package/DRAM).
        self.domain_prefix = domain_prefix

    def read_counter(self, domain: RaplDomain) -> int:
        """Raw 32-bit energy-status counter value for a domain."""
        energy_j = self.meter.energy_j(self.domain_prefix + domain.value)
        return int(energy_j / self.ENERGY_UNIT_J) & self.COUNTER_MASK

    def read_energy_j(self, domain: RaplDomain) -> float:
        """Counter value decoded to joules (still wraps like hardware)."""
        return self.read_counter(domain) * self.ENERGY_UNIT_J

    @staticmethod
    def counter_delta(before: int, after: int) -> int:
        """Wrap-aware difference between two raw counter samples."""
        return (after - before) & RaplInterface.COUNTER_MASK


class RaplSampler:
    """Accumulates wrap-corrected energy across periodic samples.

    Mirrors how powertop/SoCWatch-era tools consume RAPL: take a raw
    sample at window boundaries, accumulate deltas, divide by wall
    time for average power.
    """

    def __init__(self, rapl: RaplInterface, domain: RaplDomain):
        self.rapl = rapl
        self.domain = domain
        self._last_raw = rapl.read_counter(domain)
        self._accumulated_j = 0.0
        self._window_start_ns = rapl.meter.sim.now

    def sample(self) -> float:
        """Take a sample; returns total accumulated joules so far."""
        raw = self.rapl.read_counter(self.domain)
        delta = RaplInterface.counter_delta(self._last_raw, raw)
        self._last_raw = raw
        self._accumulated_j += delta * RaplInterface.ENERGY_UNIT_J
        return self._accumulated_j

    @property
    def energy_j(self) -> float:
        """Accumulated joules including an implicit sample now."""
        return self.sample()

    def average_power_w(self) -> float:
        """Average power since the sampler was created."""
        elapsed_ns = self.rapl.meter.sim.now - self._window_start_ns
        if elapsed_ns <= 0:
            return 0.0
        return self.energy_j / ns_to_s(elapsed_ns)

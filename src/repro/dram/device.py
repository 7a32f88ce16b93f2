"""DDR4 device (DIMM rank set) power model for one channel.

The device tracks its power mode — active idle, CKE-off power-down,
or self-refresh — and charges per-byte access energy on top of the
background power. CKE granularity is per rank in hardware; we model
one aggregate rank set per channel (the paper's flows always switch
the whole channel together, so rank granularity is not load-bearing).
"""

from __future__ import annotations

from enum import Enum

from repro.power.budgets import DramPowerSpec
from repro.power.meter import PowerChannel
from repro.power.residency import ResidencyCounter
from repro.sim.engine import Simulator


class DramPowerMode(str, Enum):
    """Power mode of the DRAM devices on a channel."""

    ACTIVE = "active"
    CKE_OFF = "cke_off"
    SELF_REFRESH = "self_refresh"


#: Residency label of each mode, as a plain string: an enum's ``.value``
#: is a descriptor call on every mode change.
_MODE_LABEL = {mode: mode.value for mode in DramPowerMode}


class DramDevice:
    """The DRAM devices behind one memory-controller channel."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        spec: DramPowerSpec,
        channel: PowerChannel,
    ):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.channel = channel
        self.mode = DramPowerMode.ACTIVE
        #: Power-mode residency; its ``enter`` also sets the background draw.
        self.residency = ResidencyCounter(
            sim, _MODE_LABEL[DramPowerMode.ACTIVE], channel
        )
        self.bytes_accessed = 0
        channel.set_power(spec.idle_w)

    def set_mode(self, mode: DramPowerMode) -> None:
        """Switch background power mode (the controller times this)."""
        if mode == self.mode:
            return
        self.mode = mode
        label = _MODE_LABEL[mode]
        self.residency.enter(label, self.spec.watts[label])

    def access(self, n_bytes: int) -> None:
        """Charge access energy for a burst.

        The device must be in the active mode — the memory controller
        is responsible for waking it first.
        """
        if n_bytes <= 0:
            raise ValueError(f"access size must be positive, got {n_bytes}")
        if self.mode is not DramPowerMode.ACTIVE:
            raise RuntimeError(
                f"{self.name}: access while in {self.mode.value} "
                "(controller must exit the power mode first)"
            )
        self.bytes_accessed += n_bytes
        self.channel.add_energy(n_bytes * self.spec.access_energy_j_per_byte)

    def average_bandwidth_bytes_per_s(self, window_ns: int) -> float:
        """Average demand bandwidth over a window (diagnostics)."""
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        return self.bytes_accessed / (window_ns * 1e-9)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DramDevice({self.name!r}, {self.mode.value})"

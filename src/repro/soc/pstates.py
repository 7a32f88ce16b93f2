"""P-states (DVFS) and the race-to-halt trade-off.

The paper's related-work discussion (Sec. 8) argues that a
nanosecond-latency package C-state makes **race-to-halt** — run at
nominal frequency, finish early, sleep deeply — more attractive than
fine-grained DVFS management (Rubik, Swan, NMAP). This module supplies
the P-state vocabulary needed to quantify that claim:

* a P-state maps to a (frequency, voltage) pair;
* active core power scales as ``f * v^2`` (the classic CMOS dynamic
  model) plus a voltage-dependent leakage share;
* service time scales inversely with frequency for core-bound work.

The paper's platform pins P-states in all measured configurations
(performance governor at 2.2 GHz nominal); the table below covers the
4114's range (0.8 GHz min, 2.2 GHz nominal; Turbo is excluded because
the paper disables it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.budgets import CorePowerSpec


@dataclass(frozen=True)
class PState:
    """One DVFS operating point."""

    name: str
    freq_ghz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0 or self.voltage_v <= 0:
            raise ValueError("frequency and voltage must be positive")


@dataclass(frozen=True)
class PStateTable:
    """The P-state ladder of one SoC, ordered fastest first."""

    states: tuple[PState, ...]
    #: Fraction of nominal CC0 power that is leakage (scales with
    #: voltage only, not frequency).
    leakage_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("need at least one P-state")
        freqs = [s.freq_ghz for s in self.states]
        if freqs != sorted(freqs, reverse=True):
            raise ValueError("P-states must be ordered fastest first")
        if not 0.0 <= self.leakage_fraction < 1.0:
            raise ValueError("leakage fraction must be in [0, 1)")

    @property
    def nominal(self) -> PState:
        """The highest (non-turbo) operating point."""
        return self.states[0]

    def by_name(self, name: str) -> PState:
        """Look up a P-state by label."""
        for state in self.states:
            if state.name == name:
                return state
        raise KeyError(f"unknown P-state {name!r}")

    def power_scale(self, state: PState) -> float:
        """Active-power ratio of ``state`` relative to nominal.

        Dynamic power scales with ``f * v^2``; leakage with ``v``
        (a first-order fit adequate across a 2.75x frequency range).
        """
        nominal = self.nominal
        dynamic = (
            (state.freq_ghz / nominal.freq_ghz)
            * (state.voltage_v / nominal.voltage_v) ** 2
        )
        leakage = state.voltage_v / nominal.voltage_v
        return (
            (1.0 - self.leakage_fraction) * dynamic
            + self.leakage_fraction * leakage
        )

    def service_scale(self, state: PState) -> float:
        """Service-time ratio of ``state`` relative to nominal."""
        return self.nominal.freq_ghz / state.freq_ghz

    def scaled_core_spec(self, base: CorePowerSpec, state: PState) -> CorePowerSpec:
        """A core power spec with CC0 power rescaled to ``state``.

        Idle-state powers are untouched: clock-gated (CC1) and
        power-gated (CC6) draw does not scale with the running
        frequency.
        """
        scale = self.power_scale(state)
        return CorePowerSpec(
            cc0_w=base.cc0_w * scale,
            cc1_w=base.cc1_w,
            cc1e_w=base.cc1e_w,
            cc6_w=base.cc6_w,
            transition_w=base.transition_w * scale,
        )

    def scaled_service_ns(self, service_ns: int, state: PState) -> int:
        """``service_ns`` rescaled to ``state``, in whole nanoseconds.

        Integer math with a fixed rounding rule (floor over kHz-exact
        frequency ratios, clamped to >= 1 ns) so a controller-issued
        P-state change keeps the simulation's determinism contract: at
        the nominal state the ratio is exactly 1 and the service time
        passes through bit-identically.
        """
        num = round(self.nominal.freq_ghz * 1000)
        den = round(state.freq_ghz * 1000)
        if num == den:
            return service_ns
        return max(1, (service_ns * num) // den)


SKX_PSTATES = PStateTable(
    states=(
        PState("P1", freq_ghz=2.2, voltage_v=0.80),   # nominal
        PState("P2", freq_ghz=1.8, voltage_v=0.74),
        PState("P3", freq_ghz=1.4, voltage_v=0.68),
        PState("P4", freq_ghz=1.0, voltage_v=0.62),
        PState("Pn", freq_ghz=0.8, voltage_v=0.58),   # minimum
    )
)
"""The Xeon Silver 4114 ladder (0.8 GHz min, 2.2 GHz nominal)."""

#: Named P-state ladders the ``pstate.table`` platform property can
#: select. Construction of new tables belongs here or in the props
#: layer (lint rule RPR007 flags raw ``PStateTable(...)`` elsewhere).
PSTATE_TABLES: dict[str, PStateTable] = {"skx": SKX_PSTATES}

PSTATE_TABLE_NAMES = tuple(PSTATE_TABLES)

#: The P-state labels of the default ladder (``pstate.nominal`` choices).
PSTATE_NAMES = tuple(state.name for state in SKX_PSTATES.states)


def pstate_table_by_name(name: str) -> PStateTable:
    """Look up a registered P-state ladder by name."""
    try:
        return PSTATE_TABLES[name]
    except KeyError:
        known = ", ".join(sorted(PSTATE_TABLES))
        raise KeyError(
            f"unknown P-state table {name!r}; known tables: {known}"
        ) from None

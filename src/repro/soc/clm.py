"""The CLM domain: CHA + LLC + mesh interconnect.

The CLM is powered by two FIVRs (Vccclm0/Vccclm1, paper Fig. 1(c)),
clocked by one PLL through a gateable clock tree. ``Ret`` always
commands both, so Vccclm1 follows Vccclm0: one settle event lands
both. Its power follows the domain voltage between the calibrated
nominal (13.4 W at 0.8 V) and retention (3.0 W at 0.5 V) points,
read off Vccclm0. During a ramp the channel integrates the mid-ramp
average — a < 0.1 % energy error at the 150 ns ramps involved.
"""

from __future__ import annotations

from repro.hw.signals import AndTree, Signal
from repro.power.budgets import ClmPowerSpec
from repro.power.fivr import Fivr
from repro.power.meter import PowerChannel
from repro.sim.engine import Simulator
from repro.soc.clock_tree import ClockTree
from repro.soc.pll import Pll


class ClmDomain:
    """CHA/LLC/mesh with its two FIVRs, PLL and clock tree."""

    def __init__(
        self,
        sim: Simulator,
        spec: ClmPowerSpec,
        channel: PowerChannel,
        pll_channel: PowerChannel | None = None,
        apmu_cycle_ns: int = 2,
    ):
        self.sim = sim
        self.spec = spec
        self.channel = channel
        leader = Fivr(
            sim,
            "Vccclm0",
            nominal_v=spec.nominal_v,
            retention_v=spec.retention_v,
            on_voltage_change=self._on_voltage_change,
        )
        follower = Fivr(
            sim,
            "Vccclm1",
            nominal_v=spec.nominal_v,
            retention_v=spec.retention_v,
            follows=leader,
        )
        self.fivrs = [leader, follower]
        #: ``Ret`` commands Vccclm0, which passes it on to Vccclm1.
        self._vccclm0 = leader
        self.pll = Pll(sim, "clm_pll", channel=pll_channel)
        self.clock_tree = ClockTree(sim, "clm", cycle_ns=apmu_cycle_ns)
        #: ``Ret`` control wire (paper Sec. 4.3): both FIVRs drop to
        #: their pre-programmed RVID when asserted.
        self.ret = Signal("clm.Ret", value=False)
        self.ret.watch(self._on_ret_change)
        #: Combined ``PwrOk``: asserted when both FIVRs sit at target.
        self.pwr_ok = AndTree("clm.PwrOk", [f.pwr_ok for f in self.fivrs]).output
        channel.set_power(spec.nominal_w)

    # -- state -------------------------------------------------------------
    @property
    def voltage(self) -> float:
        """Domain voltage (the two FIVRs track each other)."""
        return self.fivrs[0].voltage

    @property
    def at_retention(self) -> bool:
        """True when both FIVRs sit at the retention level."""
        return all(
            not f.ramping and abs(f.voltage - f.retention_v) < 1e-9
            for f in self.fivrs
        )

    @property
    def available(self) -> bool:
        """True when the LLC/mesh can serve traffic."""
        return (
            self.pll.locked
            and self.clock_tree.running
            and not self.ret.value
            and self.pwr_ok.value
        )

    # -- internals ---------------------------------------------------------
    def _on_ret_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            self._vccclm0.enter_retention()
        else:
            self._vccclm0.exit_retention()

    def _on_voltage_change(self, voltage_v: float) -> None:
        fivr = self._vccclm0
        if fivr.ramping:
            # Account the ramp interval at the midpoint power.
            midpoint = (
                self.spec.for_voltage(voltage_v)
                + self.spec.for_voltage(fivr.target_v)
            ) / 2.0
            self.channel.set_power(midpoint)
        else:
            self.channel.set_power(self.spec.for_voltage(self.voltage))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "avail" if self.available else "down"
        return f"ClmDomain({self.voltage:.2f} V, {status})"

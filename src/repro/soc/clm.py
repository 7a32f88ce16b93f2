"""The CLM domain: CHA + LLC + mesh interconnect.

The CLM is powered by two FIVRs (Vccclm0/Vccclm1, paper Fig. 1(c)),
clocked by one PLL through a gateable clock tree. ``Ret`` always
commands both, so Vccclm1 follows Vccclm0: one settle event lands
both. Its power follows the domain voltage between the calibrated
nominal (13.4 W at 0.8 V) and retention (3.0 W at 0.5 V) points,
read off Vccclm0. During a ramp the channel integrates the mid-ramp
average — a < 0.1 % energy error at the 150 ns ramps involved. The
draws at the two levels and mid-way between them are computed once;
only a ramp preempted mid-way interpolates.
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
        # Vccclm0's two levels and the draws at and between them.
        self._nominal_v = nominal_v = leader.nominal_v
        self._retention_v = retention_v = leader.retention_v
        self._nominal_w = nominal_w = spec.for_voltage(nominal_v)
        self._retention_w = retention_w = spec.for_voltage(retention_v)
        self._full_ramp_w = (nominal_w + retention_w) / 2.0
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
        # ``voltage_v`` is where the output starts ramping or settled.
        nominal_v = self._nominal_v
        retention_v = self._retention_v
        fivr = self._vccclm0
        if fivr.ramping:
            # Account the ramp interval at the midpoint power.
            target_v = fivr.target_v
            if (voltage_v == nominal_v or voltage_v == retention_v) and (
                target_v == nominal_v or target_v == retention_v
            ):
                power_w = self._full_ramp_w  # one level to the other
            else:
                for_voltage = self.spec.for_voltage
                power_w = (for_voltage(voltage_v) + for_voltage(target_v)) / 2.0
        elif voltage_v == nominal_v:
            power_w = self._nominal_w
        elif voltage_v == retention_v:
            power_w = self._retention_w
        else:
            power_w = self.spec.for_voltage(voltage_v)
        self.channel.set_power(power_w)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        status = "avail" if self.available else "down"
        return f"ClmDomain({self.voltage:.2f} V, {status})"

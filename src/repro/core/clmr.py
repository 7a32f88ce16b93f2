"""CHA/LLC/Mesh Retention (CLMR).

CLMR (paper Sec. 4.3 / 5.2) makes the CLM domain's power collapse
*agile* by replacing the firmware mailbox path of PC6 with two wires:

* ``Ret`` to both CLM FIVRs — asserting it drops both regulators to
  their pre-programmed retention VID (RVID, an 8-bit register added
  to each FIVR control module); deasserting ramps back to the
  previous operational level. ``PwrOk`` reports a settled output.
* ``ClkGate`` to the CLM clock-tree control — gating takes 1–2 cycles
  because the **PLL is kept locked**, the defining trade of PC1A
  (7 mW per ADPLL vs microseconds of re-lock).

The controller enforces that invariant: within CLMR the CLM PLL is
never powered off, and the clock is only ungated after ``PwrOk``.
"""

from __future__ import annotations

from repro.soc.clm import ClmDomain


class ClmrError(RuntimeError):
    """Raised when an operation would violate a CLMR invariant."""


class ClmrController:
    """Drives the CLM domain through retention transitions."""

    def __init__(self, clm: ClmDomain):
        self.clm = clm
        # Pass-through wires, bound once: the APMU flow reads them on
        # every PC1A entry and exit.
        #: The ``Ret`` wire into both CLM FIVRs.
        self.ret = clm.ret
        #: Combined ``PwrOk`` from both CLM FIVRs.
        self.pwr_ok = clm.pwr_ok
        #: The ``ClkGate`` wire into the CLM clock-tree control.
        self.clk_gate = clm.clock_tree.clk_gate
        if not clm.pll.locked:
            raise ClmrError("CLMR requires the CLM PLL locked at attach time")

    # -- invariant-checked operations ------------------------------------------
    def gate_and_drop(self) -> None:
        """PC1A entry branch (i): gate the clock, command retention."""
        if not self.clm.pll.locked:
            raise ClmrError("CLM PLL lost lock: PC1A must keep PLLs on")
        self.clk_gate.set(True)
        self.ret.set(True)

    def raise_voltage(self) -> None:
        """PC1A exit branch (i) step 4: start the upward ramp."""
        self.ret.set(False)

    def ungate(self) -> None:
        """PC1A exit step 5: ungate after ``PwrOk`` (checked)."""
        if not self.pwr_ok.value:
            raise ClmrError("ungate before PwrOk would clock an unstable domain")
        if not self.clm.pll.locked:
            raise ClmrError("CLM PLL lost lock: PC1A must keep PLLs on")
        self.clk_gate.set(False)

    # -- status ------------------------------------------------------------
    @property
    def at_retention(self) -> bool:
        """True while the domain sits at the retention voltage."""
        return self.clm.at_retention

    @property
    def pll_kept_on(self) -> bool:
        """The PC1A invariant: the CLM PLL stays powered and locked."""
        return self.clm.pll.powered and self.clm.pll.locked

    #: Long-distance wires added by CLMR (Sec. 5.2): Ret to the two
    #: FIVRs and the ClkGate run — PwrOk returns along the Ret route.
    long_distance_signal_count = 3

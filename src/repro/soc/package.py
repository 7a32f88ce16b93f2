"""Package C-state vocabulary and the package-controller interface.

Package states (paper Table 2 and Sec. 4):

* ``PC0`` — at least one core active; everything on.
* ``PC2`` — legacy transient state on the way to/from PC6.
* ``PC6`` — deep legacy state: IOs in L1, DRAM in self-refresh, PLLs
  off, CLM at retention. > 50 µs to open the path back to memory.
* ``ACC1`` — APC's transient state: all cores in CC1, uncore still
  available, IOs allowed into L0s.
* ``PC1A`` — APC's agile deep state (the contribution).

A *package controller* owns the package state machine. Three
implementations exist: :class:`StaticPc0Controller` (the ``Cshallow``
baseline — package power management disabled), :class:`~repro.soc.gpmu.Gpmu`
(the legacy PC6 flow used by ``Cdeep``) and
:class:`~repro.core.apmu.Apmu` (the paper's contribution).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from repro.hw.signals import Signal
from repro.power.residency import ResidencyCounter
from repro.sim.engine import Simulator


class PackageCState(str, Enum):
    """Package C-state labels shared by residency counters and traces."""

    PC0 = "PC0"
    PC2 = "PC2"
    PC6 = "PC6"
    ACC1 = "ACC1"
    PC1A = "PC1A"
    #: Transient label used while a controller executes an entry/exit flow.
    TRANSITION = "PCx-transition"


class PackageController:
    """Base class: owns the package residency counter and wake gating.

    The key contract is :meth:`request_wake`: hardware that needs the
    package awake (a core receiving an interrupt, the GPMU timer)
    calls it with a callback; the controller triggers its exit flow if
    necessary and fires the callback once interrupts are deliverable
    and the path to memory is open. In ``PC0``-like states the
    callback fires synchronously.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.residency = ResidencyCounter(sim, PackageCState.PC0.value)
        self._wake_waiters: list[Callable[[], None]] = []

    # -- interface ---------------------------------------------------------
    @property
    def package_state(self) -> str:
        """Current package C-state label."""
        return self.residency.state

    @property
    def memory_path_open(self) -> bool:
        """True when cores can execute and reach memory immediately."""
        raise NotImplementedError

    def request_wake(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` as soon as the package can serve execution."""
        if self.memory_path_open:
            callback()
        else:
            self._wake_waiters.append(callback)
            self._trigger_exit()

    def _trigger_exit(self) -> None:
        """Start the exit flow if one is not already in progress."""
        raise NotImplementedError

    # -- helpers for subclasses ---------------------------------------------
    def _release_wake_waiters(self) -> None:
        waiters, self._wake_waiters = self._wake_waiters, []
        for callback in waiters:
            callback()

    def _on_pwr_ok(self, pwr_ok: Signal, fn: Callable[[], None]) -> None:
        """Run ``fn`` once ``pwr_ok`` reports a stable voltage (now if it does)."""
        if pwr_ok.value:
            fn()
            return

        def watcher(signal: Signal, old: bool, new: bool) -> None:
            if new:
                pwr_ok.unwatch(watcher)
                fn()

        pwr_ok.watch(watcher)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(state={self.package_state!r})"


class StaticPc0Controller(PackageController):
    """The ``Cshallow`` package policy: package C-states disabled.

    The package never leaves PC0, so wake requests complete
    synchronously and no uncore component ever changes power state.
    """

    def __init__(self, sim: Simulator):
        super().__init__(sim, "static-pc0")

    @property
    def memory_path_open(self) -> bool:
        return True

    def _trigger_exit(self) -> None:  # pragma: no cover - unreachable
        raise AssertionError("static PC0 controller never sleeps")

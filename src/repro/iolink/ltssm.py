"""The Link Training and Status State Machine (LTSSM).

The LTSSM manages link operation for each high-speed IO (paper
Sec. 5.1, [11, 13, 66]). We model the subset that matters for power
management plus the training path for protocol fidelity:

::

    Detect -> Polling -> Configuration -> L0
    L0 <-> L0s            (autonomous, gated by AllowL0s)
    L0 <-> L0p            (UPI partial width)
    L0 -> Recovery -> L1  (commanded, e.g. by the GPMU PC6 flow)
    L1 -> Recovery -> L0  (wake: retrain, microseconds)

Entry into the shallow state is *autonomous*: once the link has been
idle for the programmed ``L0S_ENTRY_LAT`` window the LTSSM drops to
L0s/L0p with no OS or driver involvement (Sec. 3.1).

It is a timed state machine: a transition may take effect after a
delay, and a later ``goto`` preempts one still pending (a wake arriving
during entry). Polling, Configuration and Recovery each move on by
themselves when entered.
"""

from __future__ import annotations

from typing import Callable

from repro.iolink.lstates import LinkTimings, LSTATE_BY_NAME, LState
from repro.sim.engine import Event, Simulator


class LtssmError(RuntimeError):
    """Raised on protocol violations (illegal transition requests)."""


#: The states whose entry schedules the next one.
_SELF_TIMED = frozenset(("Polling", "Configuration", "Recovery"))


class Ltssm:
    """A timed LTSSM instance for one link.

    Parameters
    ----------
    shallow_state:
        ``"L0s"`` for PCIe/DMI, ``"L0p"`` for UPI (no L0s support).
    start_in_l0:
        Simulations start with trained links; set False to exercise
        the Detect/Polling/Configuration bring-up path.
    on_transition:
        Called as ``fn(state)`` after every LTSSM transition, once the
        new state's entry action has run: the owning link's power and
        status bookkeeping, and the one place to record transitions.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timings: LinkTimings,
        shallow_state: str = "L0s",
        start_in_l0: bool = True,
        on_transition: Callable[[str], None] | None = None,
    ):
        if shallow_state not in ("L0s", "L0p"):
            raise LtssmError(f"shallow state must be L0s or L0p, got {shallow_state!r}")
        self.sim = sim
        self.name = name
        self.state = "L0" if start_in_l0 else "Detect"
        #: The delayed transition in flight: its event's one argument is
        #: the target state.
        self._pending: Event | None = None
        self._on_transition = on_transition
        self.timings = timings
        self.shallow_state = shallow_state
        self._recovery_target: str | None = None
        if not start_in_l0:
            self.goto("Polling", after_ns=timings.detect_ns)

    # -- classification ------------------------------------------------------
    @property
    def lstate(self) -> LState:
        """The :class:`LState` descriptor for the current FSM state."""
        return LSTATE_BY_NAME[self.state]

    @property
    def in_shallow(self) -> bool:
        """True while resident in the shallow standby state."""
        return self.state == self.shallow_state

    # -- transitions -----------------------------------------------------
    def goto(self, state: str, after_ns: int = 0) -> None:
        """Transition to ``state``, optionally after a delay.

        A pending delayed transition is cancelled: the latest
        ``goto`` wins, which models a flow being redirected by a new
        event (for example a wake event arriving during entry).
        """
        if state not in LSTATE_BY_NAME:
            raise LtssmError(f"unknown state {state!r} for {self.name!r}")
        pending = self._pending
        if pending is not None:
            pending.cancel()
        if after_ns <= 0:
            self._apply(state)
        else:
            self._pending = self.sim.schedule(after_ns, self._apply, state)

    def cancel_pending(self) -> None:
        """Abort a delayed transition (if any)."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    @property
    def pending_target(self) -> str | None:
        """The target of an in-flight delayed transition, if any."""
        pending = self._pending
        if pending is not None and pending.pending:
            return pending.args[0]
        return None

    def _apply(self, state: str) -> None:
        self._pending = None
        if state == self.state:
            return
        self.state = state
        if state in _SELF_TIMED:
            timings = self.timings
            if state == "Recovery":
                target = self._recovery_target
                self._recovery_target = None
                if target == "L1":
                    self.goto("L1", after_ns=timings.recovery_ns + timings.l1_entry_ns)
                elif target == "L0":
                    self.goto("L0", after_ns=timings.l1_exit_ns)
                else:  # spontaneous recovery (error retrain)
                    self.goto("L0", after_ns=timings.recovery_ns)
            elif state == "Polling":
                self.goto("Configuration", after_ns=timings.polling_ns)
            else:  # Configuration
                self.goto("L0", after_ns=timings.configuration_ns)
        if self._on_transition is not None:
            self._on_transition(self.state)

    # -- shallow standby -----------------------------------------------------
    def enter_shallow(self) -> None:
        """Autonomous L0 -> L0s/L0p after the idle window elapsed."""
        if self.state != "L0":
            raise LtssmError(
                f"{self.name}: shallow entry only from L0, in {self.state}"
            )
        self.goto(self.shallow_state)

    def exit_shallow(self) -> int:
        """Wake from the shallow state; returns the exit latency in ns."""
        if self.state != self.shallow_state:
            raise LtssmError(f"{self.name}: shallow exit requested in {self.state}")
        exit_ns = self.timings.shallow_exit_ns
        self.goto("L0", after_ns=exit_ns)
        return exit_ns

    # -- deep state (L1) -----------------------------------------------------
    def enter_l1(self) -> int:
        """Commanded entry to L1 via Recovery; returns total latency."""
        if self.state not in ("L0", self.shallow_state):
            raise LtssmError(f"{self.name}: L1 entry from {self.state} not allowed")
        total = self.timings.recovery_ns + self.timings.l1_entry_ns
        self._recovery_target = "L1"
        self.goto("Recovery")
        return total

    def exit_l1(self) -> int:
        """Wake from L1: retrain through Recovery back to L0."""
        if self.state != "L1":
            raise LtssmError(f"{self.name}: L1 exit requested in {self.state}")
        total = self.timings.l1_exit_ns
        self._recovery_target = "L0"
        self.goto("Recovery")
        return total

    # -- no device ------------------------------------------------------------
    def mark_no_device(self) -> None:
        """Park the link in NDA (no device attached; deeper than L1)."""
        if self.state != "Detect":
            raise LtssmError(f"{self.name}: NDA only reachable from Detect")
        self.cancel_pending()
        self.goto("NDA")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Ltssm({self.name!r}, state={self.state!r})"

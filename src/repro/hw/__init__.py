"""Hardware modelling primitives shared by the SoC and APC models.

This package provides the signal-level vocabulary of the paper's
Fig. 3: boolean :class:`~repro.hw.signals.Signal` wires, the AND-gate
aggregation trees used for ``InCC1`` and ``InL0s``
(:class:`~repro.hw.signals.AndTree`), and a small timed finite state
machine base class (:class:`~repro.hw.fsm.TimedFsm`) that the link
LTSSM (:class:`~repro.iolink.ltssm.Ltssm`) is built on.
"""

from repro.hw.signals import AndTree, Signal, SignalError
from repro.hw.fsm import FsmError, TimedFsm

__all__ = ["AndTree", "Signal", "SignalError", "TimedFsm", "FsmError"]

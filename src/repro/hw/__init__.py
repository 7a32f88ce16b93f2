"""Hardware modelling primitives shared by the SoC and APC models.

This package provides the signal-level vocabulary of the paper's
Fig. 3: boolean :class:`~repro.hw.signals.Signal` wires and the AND-gate
aggregation trees used for ``InCC1`` and ``InL0s``
(:class:`~repro.hw.signals.AndTree`).
"""

from repro.hw.signals import AndTree, Signal, SignalError

__all__ = ["AndTree", "Signal", "SignalError"]

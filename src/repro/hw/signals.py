"""Boolean signal wires and AND-gate aggregation trees.

The APC architecture (paper Fig. 3) is held together by a handful of
single-bit signals: ``InCC1`` per core, ``InL0s`` per IO controller,
``AllowL0s``, ``Allow_CKE_OFF``, ``Ret``, ``PwrOk``, ``ClkGate``,
``WakeUp`` and ``InPC1A``. We model each as a :class:`Signal` whose
watchers are notified synchronously on a value change. Wire delay is
not modelled: the APMU flow already accounts for its FSM cycle
latencies, so routing delay is second-order.
"""

from __future__ import annotations

from typing import Callable, Iterable


class SignalError(RuntimeError):
    """Raised on signal misuse (e.g. driving an AND-tree output)."""


WatchFn = Callable[["Signal", bool, bool], None]


class Signal:
    """A single-bit wire with change notification.

    Parameters
    ----------
    name:
        Diagnostic name, e.g. ``"core3.InCC1"``.
    value:
        Initial level.

    Watchers live in a tuple that :meth:`watch` and :meth:`unwatch`
    rebuild, so a notification round runs exactly the watchers
    registered when the edge happened: a watcher that unwatches itself
    or another watcher, or registers a new one, takes effect from the
    next edge on.
    """

    def __init__(self, name: str, value: bool = False):
        self.name = name
        #: Current level of the wire, always a real bool. A plain
        #: attribute, read on every edge of the APC flows; only
        #: :meth:`set` writes it (lint rule RPR008 flags other writes).
        self.value = bool(value)
        self._watchers: tuple[WatchFn, ...] = ()

    def set(self, value: bool) -> None:
        """Drive the wire; watchers fire only on an actual change.

        Any truthy ``value`` drives the wire high, any falsy one low;
        the stored level and the ``old``/``new`` watchers see are
        always real bools.
        """
        new = True if value else False
        if new is self.value:
            return
        self.value = new
        old = not new
        for fn in self._watchers:
            fn(self, old, new)

    def assert_(self) -> None:
        """Drive the wire high (hardware-spec vocabulary)."""
        self.set(True)

    def deassert(self) -> None:
        """Drive the wire low."""
        self.set(False)

    def watch(self, fn: WatchFn) -> None:
        """Register ``fn(signal, old, new)`` to run on level changes."""
        self._watchers = (*self._watchers, fn)

    def unwatch(self, fn: WatchFn) -> None:
        """Remove a previously registered watcher."""
        watchers = list(self._watchers)
        watchers.remove(fn)
        self._watchers = tuple(watchers)

    def __bool__(self) -> bool:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Signal({self.name!r}, {'1' if self.value else '0'})"


class _TreeOutput(Signal):
    """An AND tree's output wire, driven only by its inputs' edges.

    The wire keeps the count of low inputs itself, updated from each
    input edge, so an edge costs O(1). Holding the count here, not on
    the tree, keeps it with the state of whoever reaches the output
    (a machine checkpoint included). The count is exact as long as
    inputs change only through :meth:`Signal.set`.
    """

    def __init__(self, name: str, inputs: list[Signal]):
        low = sum(1 for s in inputs if not s.value)
        super().__init__(name, value=low == 0)
        self._low = low
        for signal in inputs:
            signal.watch(self._on_input_change)

    def set(self, value: bool) -> None:
        raise SignalError(f"AND tree output {self.name!r} cannot be driven")

    def _on_input_change(self, signal: Signal, old: bool, new: bool) -> None:
        if new:
            self._low -= 1
            if self._low == 0:
                Signal.set(self, True)
        else:
            self._low += 1
            if self._low == 1:
                Signal.set(self, False)


class AndTree:
    """AND-gate aggregation of many input signals into one output.

    The paper aggregates per-core ``InCC1`` and per-controller
    ``InL0s`` through AND gates of neighbouring units to save routing
    (Sec. 5.3). Functionally the tree is a wide AND; we additionally
    expose ``levels(fan_in)`` so the area model can count gate stages.

    The output signal must not be driven externally.
    """

    def __init__(self, name: str, inputs: Iterable[Signal]):
        self.name = name
        self.inputs = list(inputs)
        if not self.inputs:
            raise SignalError(f"AND tree {name!r} needs at least one input")
        self.output: Signal = _TreeOutput(f"{name}.out", self.inputs)

    @property
    def value(self) -> bool:
        """Level of the AND of all inputs."""
        return self.output.value

    def levels(self, fan_in: int = 4) -> int:
        """Number of gate levels for a given gate fan-in (area model)."""
        if fan_in < 2:
            raise SignalError(f"fan-in must be at least 2, got {fan_in}")
        n, depth = len(self.inputs), 0
        while n > 1:
            n = -(-n // fan_in)
            depth += 1
        return depth

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"AndTree({self.name!r}, {len(self.inputs)} inputs, value={self.value})"

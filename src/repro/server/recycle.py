"""Machine checkpoint/restore: the warm-machine sweep path.

Building a :class:`~repro.server.machine.ServerMachine` costs roughly
as much as simulating a short idle cell: most of the time goes into
*structural* work — allocating a few hundred model objects, wiring
signal watch lists, registering power channels — that is identical for
every cell sharing a config. :class:`MachineCheckpoint` separates that
structure from the (much smaller) mutable state: it walks the object
graph of a freshly built machine, records every attribute value, and
can later restore the graph to exactly that state without re-running
any of the wiring.

Byte-identical determinism is the contract (pinned by the
recycle-vs-fresh golden tests): a recycled machine must be
indistinguishable from a fresh build, event for event. Three
mechanisms guarantee it:

* **In-place container restoration.** Lists/dicts/sets/deques are
  refilled (``lst[:] = ...``), never replaced, so every alias taken at
  construction time — ``Dispatcher.cores`` is the same list object as
  ``ServerMachine.cores`` — survives; attributes whose container was
  swapped wholesale during a run (``_wake_waiters``) are pointed back
  at the original. Tuples need no rebuilding: they are immutable, so
  the captured reference stays valid while any container *inside* one
  is refilled separately.
* **Attribute-set restoration.** Each object's ``__dict__`` is cleared
  and refilled from the snapshot, so attributes added during a run
  vanish and removed ones reappear — the restored key set matches
  capture exactly.
* **Construction-event replay.** Events scheduled during ``__init__``
  (each core's initial settle-into-idle) are recorded in sequence
  order and re-scheduled after :meth:`Simulator.reset`, so they get
  the same ``(time, seq)`` identities — and therefore the same firing
  order — as on a fresh machine.

The capture pass compiles all of this into a flat plan (dict
snapshots, slot lists, container refill ops), so a restore is a short
loop of C-level operations — several times cheaper than rebuilding
the machine. Frozen dataclasses whose every attribute is immutable
(power specs with read-only ``watts`` tables, timing tables, P- and
C-states, machine configs) are captured by reference, like scalars:
they add nothing to the plan.

The walker is deliberately *loud*: a state value it cannot faithfully
snapshot (a live :class:`~repro.sim.engine.Event` reference, an
unknown mutable type) raises :class:`CheckpointError` at capture time
instead of silently corrupting later runs. Callers treat that as
"this machine is not recyclable" and fall back to fresh builds —
e.g. configs with OS timer ticks enabled, whose staggered arm events
are held by :class:`~repro.server.ticks.OsTimerTicks`.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.sim.engine import Event, Simulator

#: Immutable value types snapshotted by reference. ``str``-based enums
#: (e.g. ``DramPowerMode``) are covered by ``str``; numpy scalars
#: (``np.int64`` etc.) by ``np.generic``.
_SCALARS = (type(None), bool, int, float, str, bytes, complex, np.generic)

#: Types allowed as dict keys / set elements (must be immutable).
_IMMUTABLE_KEYS = _SCALARS + (tuple, frozenset, Enum)

# Container refill tags.
_LIST, _DICT, _SET, _DEQUE, _ARRAY = range(5)


class CheckpointError(RuntimeError):
    """The machine's state cannot be captured faithfully."""


def _is_repro_object(value: Any) -> bool:
    module = type(value).__module__ or ""
    return module == "repro" or module.startswith("repro.")


def _is_immutable(value: Any, active: set[int]) -> bool:
    """Whether ``value`` can never change, so a reference captures it.

    Immutable means a scalar or enum member, a tuple or frozenset of
    immutables, a read-only mapping (``MappingProxyType``) of
    immutables, or a frozen leaf (:func:`_is_frozen_leaf`).
    """
    if isinstance(value, (_SCALARS, Enum)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_is_immutable(item, active) for item in value)
    if isinstance(value, MappingProxyType):
        return all(
            _is_immutable(key, active) and _is_immutable(item, active)
            for key, item in value.items()
        )
    return _is_frozen_leaf(value, active)


def _is_frozen_dataclass(cls: type) -> bool:
    params = getattr(cls, "__dataclass_params__", None)
    return params is not None and bool(params.frozen)


def _is_frozen_leaf(value: Any, active: set[int]) -> bool:
    """Whether ``value`` is a frozen dataclass of immutable attributes.

    ``active`` holds the frozen objects being checked further up, so a
    reference cycle counts as mutable (and is walked).
    """
    if id(value) in active or not _is_frozen_dataclass(type(value)):
        return False
    active.add(id(value))
    values = list(getattr(value, "__dict__", {}).values())
    for name in _slot_names(type(value)):
        try:
            values.append(getattr(value, name))
        except AttributeError:
            continue
    try:
        return all(_is_immutable(item, active) for item in values)
    finally:
        active.discard(id(value))


def _slot_names(cls: type) -> list[str]:
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__"):
                names.append(name)
    return names


class MachineCheckpoint:
    """A restorable snapshot of one machine's mutable state.

    Capture must happen on a *freshly built* machine — before any
    event has fired — because restoration replays the construction
    event queue verbatim.
    """

    #: Root-object attributes never captured (the machine's own
    #: checkpoint handle must survive a restore).
    _EXCLUDED_ROOT_ATTRS = frozenset({"_checkpoint"})

    def __init__(self, machine: Any):
        sim: Simulator = machine.sim
        if sim.now != 0 or sim.events_processed != 0:
            raise CheckpointError(
                "checkpoint requires a freshly built machine "
                f"(now={sim.now}, events_processed={sim.events_processed})"
            )
        self._machine = machine
        # Construction-time events, in sequence (= scheduling) order.
        entries = sorted(sim._queue)
        self._replay = [
            (time_ns, event.fn, event.args)
            for time_ns, _seq, event in entries
            if not event.cancelled
        ]
        if len(self._replay) != sim.events_scheduled:
            raise CheckpointError(
                "construction scheduled events that already fired or "
                "were cancelled; the queue cannot be replayed faithfully"
            )
        # The compiled restore plan.
        self._dict_plans: list[tuple[dict, dict]] = []
        self._slot_plans: list[tuple[Any, list, tuple[str, ...]]] = []
        self._refills: list[tuple[int, Any, Any]] = []
        self._capture_graph(machine)

    # -- capture -----------------------------------------------------------
    def _capture_graph(self, root: Any) -> None:
        pending = [root]
        seen = {id(root)}
        # type -> whether it is a frozen dataclass (the one kind of
        # object that can be a leaf), looked up once per class.
        frozen_types: dict[type, bool] = {}
        while pending:
            obj = pending.pop()
            cls = type(obj)
            frozen = frozen_types.get(cls)
            if frozen is None:
                frozen = frozen_types[cls] = _is_frozen_dataclass(cls)
            if frozen and _is_frozen_leaf(obj, set()):
                # A frozen dataclass of immutables (a power spec, a
                # timing table, a machine config): nothing in it can
                # change, so the references to it capture it.
                continue
            to_walk: list[Any] = []
            instance_dict = getattr(obj, "__dict__", None)
            if instance_dict is not None:
                snapshot = {}
                for name, value in instance_dict.items():
                    if obj is root and name in self._EXCLUDED_ROOT_ATTRS:
                        continue
                    self._register_value(value, to_walk)
                    snapshot[name] = value
                self._dict_plans.append((instance_dict, snapshot))
            slot_values = []
            unset_slots = []
            for name in _slot_names(type(obj)):
                try:
                    value = getattr(obj, name)
                except AttributeError:
                    unset_slots.append(name)
                    continue
                self._register_value(value, to_walk)
                slot_values.append((name, value))
            if slot_values or unset_slots:
                self._slot_plans.append((obj, slot_values, tuple(unset_slots)))
            for child in to_walk:
                if id(child) not in seen:
                    seen.add(id(child))
                    pending.append(child)

    def _register_value(self, value: Any, to_walk: list) -> None:
        """Validate ``value`` and register any containers for refill.

        The captured *reference* is always the value itself (container
        identities are stable across restores); this pass records what
        each container must be refilled with and which repro objects
        still need their own snapshot.
        """
        if isinstance(value, _SCALARS):
            return
        if isinstance(value, Event):
            raise CheckpointError(
                "cannot checkpoint a live Event reference; the owning "
                "component must not hold scheduled events at construction"
            )
        if isinstance(value, tuple):
            for item in value:
                self._register_value(item, to_walk)
            return
        if isinstance(value, list):
            for item in value:
                self._register_value(item, to_walk)
            self._refills.append((_LIST, value, list(value)))
            return
        if isinstance(value, dict):
            for key, item in value.items():
                if not isinstance(key, _IMMUTABLE_KEYS):
                    raise CheckpointError(
                        f"unsupported dict key type {type(key).__name__!r}"
                    )
                self._register_value(item, to_walk)
            self._refills.append((_DICT, value, dict(value)))
            return
        if isinstance(value, set):
            for item in value:
                if not isinstance(item, _IMMUTABLE_KEYS):
                    raise CheckpointError(
                        f"unsupported set element type {type(item).__name__!r}"
                    )
            self._refills.append((_SET, value, frozenset(value)))
            return
        if isinstance(value, deque):
            for item in value:
                self._register_value(item, to_walk)
            self._refills.append((_DEQUE, value, tuple(value)))
            return
        if isinstance(value, np.ndarray):
            # Flat numeric hot state (e.g. FleetState's per-server
            # arrays): restored element-wise into the original buffer
            # so every view taken at construction time stays valid.
            if value.dtype == object:
                raise CheckpointError(
                    "cannot checkpoint an object-dtype ndarray; use a "
                    "numeric dtype or a list"
                )
            self._refills.append((_ARRAY, value, value.copy()))
            return
        if _is_repro_object(value) and not isinstance(value, (Simulator, Enum)):
            # Repro component state is walked — before the callable
            # check, so a component that happens to define __call__ is
            # still captured rather than silently skipped. Frozen
            # dataclasses are walked too unless every attribute is
            # immutable (the walk skips those leaves): frozen only
            # blocks attribute rebinding, so a mutable field value (or
            # an exotic type) must still be captured — or loudly
            # refused — like any other state.
            to_walk.append(value)
            return
        if isinstance(value, (Simulator, Enum)) or callable(value):
            # Reference leaves: shared infrastructure, immutable
            # singletons, and plain functions/bound methods — which
            # keep pointing at the reused (restored) objects.
            return
        raise CheckpointError(
            f"cannot checkpoint a value of type {type(value).__name__!r}; "
            "teach repro.server.recycle about it (or mark the machine "
            "non-recyclable)"
        )

    # -- restore -----------------------------------------------------------
    def restore(self, seed: int) -> None:
        """Rewind the machine to its captured state under ``seed``."""
        sim: Simulator = self._machine.sim
        sim.reset(seed)
        for instance_dict, snapshot in self._dict_plans:
            instance_dict.clear()
            instance_dict.update(snapshot)
        for obj, slot_values, unset_slots in self._slot_plans:
            for name, value in slot_values:
                setattr(obj, name, value)
            for name in unset_slots:
                try:
                    delattr(obj, name)
                except AttributeError:
                    pass
        for tag, original, payload in self._refills:
            if tag == _LIST:
                original[:] = payload
            elif tag == _DICT:
                original.clear()
                original.update(payload)
            elif tag == _SET:
                original.clear()
                original.update(payload)
            elif tag == _DEQUE:
                original.clear()
                original.extend(payload)
            else:  # _ARRAY
                original[:] = payload
        schedule_at = sim.schedule_at
        for time_ns, fn, args in self._replay:
            schedule_at(time_ns, fn, *args)
        if sim._sanitizer is not None:
            self._verify_restore(sim)

    def _verify_restore(self, sim: Simulator) -> None:
        """Sanitize-mode audit: the restored queue must byte-match capture.

        A fresh machine's construction queue holds exactly the replay
        plan with sequence numbers ``0..n-1``; after a restore the live
        queue must be identical in ``(time, seq, callback, args)`` or
        the recycled machine would dispatch a different event stream
        than a fresh build. The walker itself cannot drift here, but a
        component that mutates captured state during restore (e.g. a
        ``__setattr__`` side effect re-arming a timer) can — this check
        turns that silent divergence into a loud CheckpointError.
        """
        from repro.sim.sanitize import callback_label

        live = [
            (time_ns, seq, event)
            for time_ns, seq, event in sorted(sim._queue)
            if not event.cancelled
        ]
        if len(live) != len(self._replay):
            raise CheckpointError(
                f"restore audit: {len(live)} live events after restore, "
                f"capture recorded {len(self._replay)}"
            )
        for index, (plan, entry) in enumerate(zip(self._replay, live)):
            time_ns, fn, args = plan
            got_time, got_seq, event = entry
            if (
                got_time != time_ns
                or got_seq != index
                or event.fn is not fn
                or event.args != args
            ):
                raise CheckpointError(
                    "restore audit: event stream diverged at replay index "
                    f"{index}: expected (t={time_ns}, seq={index}, "
                    f"{callback_label(fn)}), got (t={got_time}, "
                    f"seq={got_seq}, {callback_label(event.fn)})"
                )

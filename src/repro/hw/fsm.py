"""A small timed finite-state-machine base class.

A hardware control flow whose transitions take wall-clock time is a
timed FSM; the link LTSSM (:class:`repro.iolink.ltssm.Ltssm`) is one.
The :class:`TimedFsm` base provides:

* a current state with enter/exit hooks,
* timed transitions (``goto(state, after_ns=...)``) that can be
  preempted by later ``goto`` calls (e.g. a wake event during entry),
* an optional transition listener, called after each transition
  (the one place to record transitions: the FSM keeps no log).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Event, Simulator


class FsmError(RuntimeError):
    """Raised on invalid FSM usage (unknown state, bad transition)."""


class TimedFsm:
    """Base class for timed state machines.

    Subclasses declare ``STATES`` (a set/sequence of hashable state
    labels) and may implement ``on_enter_<state>`` /
    ``on_exit_<state>`` hooks (lower-cased state label). The hooks are
    class attributes, resolved once per class when it is defined.

    ``on_transition``, when given, is called as ``fn(state)`` after
    every transition, once the enter hook has run.
    """

    STATES: tuple[str, ...] = ()
    #: ``STATES`` as a set, per class: ``goto`` checks each target.
    _STATE_SET: frozenset[str] = frozenset()
    #: State label -> ``on_enter_*`` / ``on_exit_*`` function, per class.
    _ENTER_HOOKS: dict[str, Callable[[Any], None]] = {}
    _EXIT_HOOKS: dict[str, Callable[[Any], None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._STATE_SET = frozenset(cls.STATES)
        cls._ENTER_HOOKS = _resolve_hooks(cls, "on_enter_")
        cls._EXIT_HOOKS = _resolve_hooks(cls, "on_exit_")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        initial: str,
        on_transition: Callable[[str], None] | None = None,
    ):
        if initial not in self.STATES:
            raise FsmError(f"unknown initial state {initial!r} for {name!r}")
        self.sim = sim
        self.name = name
        self.state = initial
        self.state_entered_at = sim.now
        self._pending: Event | None = None
        self._pending_target: str | None = None
        self._on_transition = on_transition

    # -- transitions -----------------------------------------------------
    def goto(self, state: str, after_ns: int = 0) -> None:
        """Transition to ``state``, optionally after a delay.

        A pending delayed transition is cancelled: the latest
        ``goto`` wins, which models a flow being redirected by a new
        event (for example a wake event arriving during entry).
        """
        if state not in self._STATE_SET:
            raise FsmError(f"unknown state {state!r} for {self.name!r}")
        pending = self._pending
        if pending is not None:
            pending.cancel()
            self._pending = None
            self._pending_target = None
        if after_ns <= 0:
            self._apply(state)
        else:
            self._pending_target = state
            self._pending = self.sim.schedule(after_ns, self._apply, state)

    def cancel_pending(self) -> None:
        """Abort a delayed transition (if any)."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
            self._pending_target = None

    @property
    def pending_target(self) -> str | None:
        """The target of an in-flight delayed transition, if any."""
        if self._pending is not None and self._pending.pending:
            return self._pending_target
        return None

    def time_in_state(self) -> int:
        """Nanoseconds spent in the current state so far."""
        return self.sim.now - self.state_entered_at

    # -- internals ---------------------------------------------------------
    def _apply(self, state: str) -> None:
        self._pending = None
        self._pending_target = None
        if state == self.state:
            return
        old = self.state
        hooks = self._EXIT_HOOKS
        if old in hooks:
            hooks[old](self)
        self.state = state
        self.state_entered_at = self.sim.now
        hooks = self._ENTER_HOOKS
        if state in hooks:
            hooks[state](self)
        if self._on_transition is not None:
            self._on_transition(self.state)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r}, state={self.state!r})"


def _resolve_hooks(
    cls: type[TimedFsm], prefix: str
) -> dict[str, Callable[[Any], None]]:
    """Map each of ``cls.STATES`` to its ``<prefix><state>`` function."""
    hooks = {}
    for state in cls.STATES:
        hook = getattr(cls, prefix + state.lower(), None)
        if hook is not None:
            hooks[state] = hook
    return hooks

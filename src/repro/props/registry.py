"""The typed, scoped platform-property registry.

Every policy knob of the modelled platform — which core C-states the
BIOS leaves enabled, the idle governor, the OS tick rate, SoC core
counts and frequencies, fleet routing — is declared here once as a
:class:`PropDef`: a name, a type, a scope (``cpu`` / ``package`` /
``machine`` / ``fleet``), the allowed values or range, a default, and
a one-line doc. The registry is the single source of truth the rest
of the config plumbing runs through (pepc-style: the same uniform
property table a real-hardware adapter would read off sysfs/MSRs):

* :mod:`repro.server.configs` validates enum-like fields against it;
* :class:`repro.props.pset.PropertySet` derives its canonical
  ordering and content hash from it;
* ``repro props list/info`` renders it for humans;
* ``--set name=value`` parses and validates CLI overrides with it.

Declaring a property
--------------------
Field-mapped properties (one :class:`MachineConfig` field) register
with the ``field=`` shortcut::

    register_prop(
        "timer_tick_hz", ptype=int, scope="machine", default=0,
        minval=0, maxval=10_000, field="timer_tick_hz",
        doc="OS scheduler tick rate (0 = tickless/NOHZ_FULL)",
    )

Derived properties (no 1:1 field) use the decorator form, supplying
``get``/``set`` accessors over the config's constructor-kwargs dict::

    @register_prop("cstates.cc6.enable", ptype=bool, scope="cpu",
                   default=False, doc="core C-state CC6 enabled")
    class _CC6:
        @staticmethod
        def get(fields): ...
        @staticmethod
        def set(fields, value): ...

Validation failures raise :class:`PropertyError` with a pepc-style
message naming the property, the bad value, and the allowed range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: The property scopes, innermost first. Scope is metadata: it names
#: the level of the platform hierarchy the knob lives at (and which
#: sweep layer consumes it) — ``fleet``-scoped properties configure
#: the cluster, everything else configures one machine.
SCOPES = ("cpu", "package", "machine", "fleet")

#: Spellings accepted for boolean property values (pepc-style).
_BOOL_WORDS = {
    "on": True, "off": False,
    "true": True, "false": False,
    "yes": True, "no": False,
    "1": True, "0": False,
    "enable": True, "disable": False,
}


class PropertyError(ValueError):
    """A property name or value failed registry validation."""


def _render_num(value: float) -> str:
    """Range-bound rendering: full integers, no scientific notation."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


@dataclass(frozen=True)
class PropDef:
    """One registered platform property (the registry row)."""

    name: str
    #: Value type: ``int``, ``float``, ``bool`` or ``str``.
    ptype: type
    #: One of :data:`SCOPES`.
    scope: str
    default: Any
    #: One-line human description (``repro props list``).
    doc: str
    #: Closed set of allowed values (enum-like properties).
    choices: tuple[Any, ...] | None = None
    #: Inclusive numeric range (numeric properties).
    minval: float | None = None
    maxval: float | None = None
    #: Display unit (documentation only).
    unit: str = ""
    #: Accessors over a MachineConfig constructor-kwargs dict; None
    #: for fleet-scoped properties (the cluster layer applies those).
    get: Callable[[dict], Any] | None = field(default=None, compare=False)
    set: Callable[[dict, Any], None] | None = field(default=None, compare=False)

    # -- value handling ----------------------------------------------------
    def parse(self, raw: str | Any) -> Any:
        """Parse a CLI/JSON spelling of a value, then validate it.

        Strings parse per the property type (booleans accept the
        pepc-ish ``on``/``off``/``true``/``false``/``1``/``0``);
        already-typed values pass straight to validation.
        """
        value = raw
        if isinstance(raw, str):
            text = raw.strip()
            if self.ptype is bool:
                try:
                    value = _BOOL_WORDS[text.lower()]
                except KeyError:
                    raise PropertyError(
                        f"property '{self.name}': bad boolean {raw!r} "
                        "(use on/off, true/false, or 1/0)"
                    ) from None
            elif self.ptype is int:
                try:
                    value = int(text, 0)
                except ValueError:
                    raise PropertyError(
                        f"property '{self.name}': {raw!r} is not an integer"
                    ) from None
            elif self.ptype is float:
                try:
                    value = float(text)
                except ValueError:
                    raise PropertyError(
                        f"property '{self.name}': {raw!r} is not a number"
                    ) from None
            else:
                value = text
        return self.validate(value)

    def validate(self, value: Any) -> Any:
        """Check ``value`` against type/choices/range; return it canonical.

        Ints are accepted where floats are declared (and normalized),
        bools are *not* accepted as ints (``True`` is not a tick rate).
        """
        if self.ptype is bool:
            if not isinstance(value, bool):
                raise PropertyError(
                    f"property '{self.name}': expected a boolean, "
                    f"got {value!r}"
                )
        elif self.ptype is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise PropertyError(
                    f"property '{self.name}': expected an integer, "
                    f"got {value!r}"
                )
        elif self.ptype is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise PropertyError(
                    f"property '{self.name}': expected a number, got {value!r}"
                )
            value = float(value)
        elif not isinstance(value, str):
            raise PropertyError(
                f"property '{self.name}': expected a string, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            allowed = ", ".join(str(c) for c in self.choices)
            raise PropertyError(
                f"property '{self.name}': bad value {value!r} "
                f"(use one of: {allowed})"
            )
        if self.minval is not None and value < self.minval:
            raise PropertyError(
                f"property '{self.name}': {value!r} is below the minimum "
                f"{_render_num(self.minval)}{self.unit and ' ' + self.unit}"
            )
        if self.maxval is not None and value > self.maxval:
            raise PropertyError(
                f"property '{self.name}': {value!r} is above the maximum "
                f"{_render_num(self.maxval)}{self.unit and ' ' + self.unit}"
            )
        return value

    def allowed(self) -> str:
        """Human rendering of the allowed values/range."""
        if self.choices is not None:
            return "|".join(str(c) for c in self.choices)
        if self.ptype is bool:
            return "on|off"
        lo = "" if self.minval is None else _render_num(self.minval)
        hi = "" if self.maxval is None else _render_num(self.maxval)
        if lo or hi:
            return f"{lo}..{hi}"
        return self.ptype.__name__


#: name -> PropDef, in registration order (rendering re-sorts).
PROPS: dict[str, PropDef] = {}

#: Registrations so far. Anything derived from the registry (the
#: preset table of :mod:`repro.props.pset`) records the generation it
#: was built at and rebuilds once a later registration changes it.
_generation = 0


def registry_generation() -> int:
    """The registry's generation: it grows with every registration."""
    return _generation


def register_prop(
    name: str,
    *,
    ptype: type,
    scope: str,
    default: Any,
    doc: str,
    choices: tuple[Any, ...] | None = None,
    minval: float | None = None,
    maxval: float | None = None,
    unit: str = "",
    field: str | None = None,
):
    """Register a property; see the module docstring for both forms.

    With ``field=`` the accessors are generated (the property is that
    constructor kwarg); without it, returns a decorator expecting a
    namespace with ``get(fields)``/``set(fields, value)`` staticmethods.
    """
    if name in PROPS:
        raise PropertyError(f"duplicate property registration: '{name}'")
    if scope not in SCOPES:
        raise PropertyError(
            f"property '{name}': unknown scope {scope!r}; have {SCOPES}"
        )

    def _finish(get, set_):
        global _generation
        prop = PropDef(
            name=name, ptype=ptype, scope=scope, default=default, doc=doc,
            choices=choices, minval=minval, maxval=maxval, unit=unit,
            get=get, set=set_,
        )
        prop.validate(default)
        PROPS[name] = prop
        _generation += 1
        return prop

    if field is not None:
        def _get(fields: dict, _field: str = field) -> Any:
            return fields[_field]

        def _set(fields: dict, value: Any, _field: str = field) -> None:
            fields[_field] = value

        return _finish(_get, _set)

    if scope == "fleet":
        # Fleet-scoped properties have no machine-config accessors
        # (the cluster layer applies them): register directly.
        return _finish(None, None)

    def decorator(accessors):
        get = getattr(accessors, "get", None)
        set_ = getattr(accessors, "set", None)
        if scope != "fleet" and (get is None or set_ is None):
            raise PropertyError(
                f"property '{name}': decorator form needs get/set accessors"
            )
        _finish(get, set_)
        return accessors

    return decorator


def suggest_names(name: str, known: Iterable[str]) -> str:
    """A did-you-mean hint for ``name`` against ``known`` (or '').

    Case-insensitive exact matches win (the common ``cshallow`` for
    ``Cshallow`` slip), then close spellings via difflib.
    """
    import difflib

    known = sorted(known)
    folded = {candidate.lower(): candidate for candidate in known}
    exact = folded.get(name.lower())
    if exact is not None:
        return f"; did you mean '{exact}'?"
    close = difflib.get_close_matches(name, known, n=2, cutoff=0.6)
    if close:
        options = "' or '".join(close)
        return f"; did you mean '{options}'?"
    return ""


def get_prop(name: str) -> PropDef:
    """Look up a property, with did-you-mean on unknown names."""
    try:
        return PROPS[name]
    except KeyError:
        hint = suggest_names(name, PROPS)
        raise PropertyError(
            f"unknown property '{name}'{hint} "
            "(see 'repro props list')"
        ) from None


def machine_props() -> Iterator[PropDef]:
    """The properties that define one machine (everything non-fleet),
    in canonical (sorted-name) order."""
    return iter(sorted(
        (p for p in PROPS.values() if p.scope != "fleet"),
        key=lambda p: p.name,
    ))


def fleet_props() -> Iterator[PropDef]:
    """The fleet-scoped properties, in canonical (sorted-name) order."""
    return iter(sorted(
        (p for p in PROPS.values() if p.scope == "fleet"),
        key=lambda p: p.name,
    ))


def all_props() -> Iterator[PropDef]:
    """Every registered property in canonical (sorted-name) order."""
    return iter(sorted(PROPS.values(), key=lambda p: p.name))

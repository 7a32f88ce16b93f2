"""Property sets: the canonical identity of a machine configuration.

A :class:`PropertySet` is a frozen mapping holding one value for
*every* machine-scoped property in the registry, in canonical
(sorted-name) order. It is the config layer's identity object:

* :meth:`PropertySet.from_config` derives the set behind any
  :class:`~repro.server.configs.MachineConfig` — the config is a
  *view* over its property set;
* :meth:`PropertySet.to_config` builds the config back (the only
  place constructor kwargs are assembled from properties);
* :meth:`PropertySet.content_hash` gives the content hash cache keys
  embed, so a named preset and its explicit property-set spelling
  share one cache entry by construction;
* :func:`apply_props` builds any hybrid — ``Cshallow`` +
  ``timer_tick_hz=250`` + ``cstates.cc6.enable=on`` — and
  canonicalizes the result's name back to a preset when the resolved
  set matches one;
* :func:`normalize_props` canonicalizes override pairs, the form
  :func:`resolve_config` keys its cache on and every sweep and fleet
  cell carries.

The three paper configurations are registered as named presets
(:func:`preset_names`, :func:`preset_props`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping

from repro.props.registry import (
    PropertyError,
    get_prop,
    machine_props,
    registry_generation,
)

if TYPE_CHECKING:
    from repro.server.configs import MachineConfig


class PropertySet(Mapping[str, Any]):
    """A complete, frozen machine property assignment.

    Immutable and hashable; iteration order is canonical (sorted by
    property name), so two equal sets render, hash and serialize
    identically however they were built.
    """

    __slots__ = ("_items", "_lookup")

    def __init__(self, values: Mapping[str, Any]):
        items = []
        seen = dict(values)
        for prop in machine_props():
            if prop.name not in seen:
                raise PropertyError(
                    f"incomplete property set: missing '{prop.name}'"
                )
            items.append((prop.name, prop.validate(seen.pop(prop.name))))
        if seen:
            extra = ", ".join(sorted(seen))
            raise PropertyError(
                f"not machine properties: {extra} (fleet-scoped or unknown)"
            )
        object.__setattr__(self, "_items", tuple(items))
        object.__setattr__(self, "_lookup", dict(items))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("PropertySet is immutable")

    def __reduce__(self) -> tuple:
        # Slots + the immutability guard break pickle's default
        # protocol; reconstruct through __init__ instead.
        return (PropertySet, (dict(self._items),))

    # -- Mapping protocol --------------------------------------------------
    def __getitem__(self, name: str) -> Any:
        try:
            return self._lookup[name]
        except KeyError:
            get_prop(name)  # raises with did-you-mean for unknown names
            raise

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PropertySet):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"PropertySet({body})"

    # -- identity ----------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-friendly; insertion order canonical)."""
        return dict(self._items)

    def content_hash(self) -> str:
        """Content hash of the full assignment (cache-key material)."""
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    # -- algebra -----------------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, Any]) -> "PropertySet":
        """A new set with ``overrides`` applied (values parsed+validated).

        Fleet-scoped names are rejected here: they configure a
        cluster, not a machine (pass them to the fleet layer).
        """
        merged = dict(self._items)
        for name, raw in overrides.items():
            prop = get_prop(name)
            if prop.scope == "fleet":
                raise PropertyError(
                    f"property '{name}' is fleet-scoped; it applies to a "
                    "cluster (repro fleet), not a machine config"
                )
            merged[name] = prop.parse(raw)
        return PropertySet(merged)

    def diff(self, base: "PropertySet") -> dict[str, Any]:
        """The properties where ``self`` differs from ``base``."""
        return {
            name: value
            for name, value in self._items
            if base[name] != value
        }

    # -- config conversion -------------------------------------------------
    @classmethod
    def from_config(cls, config: Any) -> "PropertySet":
        """The property set behind a :class:`MachineConfig`."""
        import dataclasses

        fields = {
            f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)
        }
        values = {}
        for prop in machine_props():
            assert prop.get is not None
            values[prop.name] = prop.get(fields)
        return cls(values)

    def to_config(self, name: str, soc: Any | None = None) -> Any:
        """Build the :class:`MachineConfig` this set describes.

        The config's own ``__post_init__`` still runs, so cross-field
        constraints (at least one C-state enabled; CPC1A implies CC6
        stays disabled) apply to property-built configs too. ``soc``
        carries structural SoC fields outside the registry (IO
        controller counts, the power budget) through unchanged; the
        registry's ``soc.*`` properties then overwrite their fields.
        """
        from repro.server.configs import MachineConfig
        from repro.soc.config import SKX_CONFIG

        fields: dict[str, Any] = {
            "name": name,
            "enabled_cstates": (),
            "soc": SKX_CONFIG if soc is None else soc,
        }
        for prop in machine_props():
            assert prop.set is not None
            prop.set(fields, self[prop.name])
        return MachineConfig(**fields)


# -- override pairs ----------------------------------------------------------

#: A platform-property override value (parsed, not the CLI spelling).
PropValue = bool | int | float | str

#: Canonical override pairs: sorted by name, hashable, JSON-friendly.
PropPairs = tuple[tuple[str, PropValue], ...]


def normalize_props(props: Any, *, control: bool = False) -> PropPairs:
    """Canonicalize property overrides into sorted, validated pairs.

    Accepts a mapping or an iterable of (name, value) pairs (lists
    survive JSON round-trips); values may be CLI string spellings.
    Machine overrides (the default) reject fleet-scoped properties —
    they configure a cluster, not a machine cell. ``control=True``
    accepts only the controller knobs
    (:data:`repro.props.builtin.CONTROL_PROP_NAMES`) and drops pairs
    equal to the registry default, so an explicit default and an
    omitted knob resolve to the same cache key.
    """
    from repro.props.builtin import CONTROL_PROP_NAMES

    if props is None:
        return ()
    pairs = props.items() if isinstance(props, dict) else props
    seen: dict[str, PropValue] = {}
    for name, value in pairs:
        if control and name not in CONTROL_PROP_NAMES:
            raise ValueError(
                f"'{name}' is not a controller knob; control_props "
                f"accepts {CONTROL_PROP_NAMES}"
            )
        prop = get_prop(name)
        if not control and prop.scope == "fleet":
            raise ValueError(
                f"property '{name}' is fleet-scoped; use it on a fleet "
                "grid (repro fleet), not a machine cell"
            )
        if name in seen:
            raise ValueError(f"duplicate property override '{name}'")
        seen[name] = prop.parse(value)
    return tuple(
        sorted(
            (name, value)
            for name, value in seen.items()
            if not control or value != get_prop(name).default
        )
    )


def merge_props(base: PropPairs, extra: PropPairs) -> PropPairs:
    """Merge two canonical override sets (``extra`` wins on conflict)."""
    if not extra:
        return base
    if not base:
        return extra
    merged = dict(base)
    merged.update(extra)
    return tuple(sorted(merged.items()))


# -- presets -----------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedConfig:
    """A preset plus override pairs, resolved: the full property set
    and the :class:`~repro.server.configs.MachineConfig` built from it.

    One object serves every cell of its (preset, overrides) pair, so
    neither is rebuilt or re-validated per cell.
    """

    props: PropertySet
    config: MachineConfig


#: Hybrid resolutions kept per preset table (oldest evicted first).
_HYBRIDS_MAX = 512


class _PresetTable:
    """The named presets of one registry generation, with the hybrids
    resolved over them.

    Rebuilt whenever the registry gains a property, so no resolution
    outlives the registry it was computed from.
    """

    def __init__(self, generation: int):
        from repro.server.configs import CONFIG_BUILDERS

        self.generation = generation
        self.presets: dict[str, ResolvedConfig] = {}
        for name, builder in CONFIG_BUILDERS.items():
            config = builder()
            self.presets[name] = ResolvedConfig(
                PropertySet.from_config(config), config
            )
        self.props = {
            name: preset.props for name, preset in self.presets.items()
        }
        #: (preset name, canonical override pairs) -> resolution.
        self.hybrids: dict[tuple[str, tuple], ResolvedConfig] = {}


_TABLE: _PresetTable | None = None


def _table() -> _PresetTable:
    """The current preset table (built lazily: the config builders
    live in server.configs, which imports this package for
    validation)."""
    global _TABLE
    generation = registry_generation()
    if _TABLE is None or _TABLE.generation != generation:
        _TABLE = _PresetTable(generation)
    return _TABLE


def _presets() -> dict[str, PropertySet]:
    """name -> PropertySet for the named configs."""
    return _table().props


def resolve_config(name: str, overrides: PropPairs = ()) -> ResolvedConfig:
    """The shared resolution of preset ``name`` plus ``overrides``.

    ``overrides`` are canonical pairs (sorted by name, values parsed),
    as :func:`normalize_props` produces them. Without
    overrides this is the preset's own resolution; a hybrid resolves
    once per preset table and is shared after that. The result equals
    ``apply_props(name, dict(overrides))`` and its property set. An
    unknown ``name`` raises
    :class:`~repro.server.configs.UnknownConfigError`; a hybrid that
    breaks a cross-field constraint raises ``ValueError``.
    """
    table = _table()
    try:
        preset = table.presets[name]
    except KeyError:
        from repro.server.configs import config_by_name

        config_by_name(name)  # raises the did-you-mean error
        raise
    if not overrides:
        return preset
    key = (name, overrides)
    resolved = table.hybrids.get(key)
    if resolved is None:
        props = preset.props.with_overrides(dict(overrides))
        config = props.to_config(
            derived_config_name(name, props), soc=preset.config.soc
        )
        if len(table.hybrids) >= _HYBRIDS_MAX:
            del table.hybrids[next(iter(table.hybrids))]
        resolved = table.hybrids[key] = ResolvedConfig(props, config)
    return resolved


def preset_names() -> tuple[str, ...]:
    """The registered preset names, in registration order."""
    return tuple(_presets())


def preset_props(name: str) -> PropertySet:
    """The full property set of a named preset."""
    from repro.props.registry import suggest_names

    presets = _presets()
    try:
        return presets[name]
    except KeyError:
        hint = suggest_names(name, presets)
        raise PropertyError(f"unknown preset '{name}'{hint}") from None


def preset_name_for(props: PropertySet) -> str | None:
    """The preset whose property set equals ``props``, if any."""
    for name, candidate in _presets().items():
        if candidate == props:
            return name
    return None


def derived_config_name(base_name: str, props: PropertySet) -> str:
    """Canonical display name for a property-built config.

    A set matching a named preset *is* that preset (so
    ``Cshallow + package_policy=pc1a`` renders as ``CPC1A``
    everywhere); anything else is the nearest base preset plus its
    differing properties (``Cshallow+timer_tick_hz=250``).
    """
    preset = preset_name_for(props)
    if preset is not None:
        return preset
    presets = _presets()
    base = presets.get(base_name)
    if base is None:
        # Base was itself a derived config: diff against the preset
        # prefix of its name so labels never nest ("A+x=1+y=2", not
        # "A+x=1+y=2" re-derived from "A+x=1").
        base_name = base_name.split("+", 1)[0]
        base = presets.get(base_name)
    if base is None:
        return f"custom-{props.content_hash()[:8]}"
    parts = [f"{name}={render_value(value)}"
             for name, value in sorted(props.diff(base).items())]
    return "+".join([base_name, *parts])


def render_value(value: Any) -> str:
    """Short value rendering for labels and tables (bools as on/off)."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_overrides(pairs: Mapping[str, Any]) -> str:
    """``k=v,k=v`` rendering of override pairs (labels, progress lines)."""
    return ",".join(
        f"{name}={render_value(value)}" for name, value in sorted(pairs.items())
    )


def config_axis_label(config: str, props: PropPairs) -> str:
    """``Cshallow+timer_tick_hz=250``-style axis label."""
    if not props:
        return config
    return f"{config}+{render_overrides(dict(props))}"


# -- the hybrid builder ------------------------------------------------------


def apply_props(base: Any, overrides: Mapping[str, Any] | None = None) -> Any:
    """Build a :class:`MachineConfig` from a base plus property overrides.

    ``base`` is a preset/config name or a built config; ``overrides``
    maps property names to values (CLI string spellings are parsed).
    The result's name is canonical: a resolved set matching a named
    preset takes that preset's name, so every spelling of one
    physical configuration carries one label.
    """
    from repro.server.configs import MachineConfig, config_by_name

    if isinstance(base, str):
        base = config_by_name(base)
    elif not isinstance(base, MachineConfig):
        raise TypeError(
            f"base must be a config name or MachineConfig, got {type(base).__name__}"
        )
    props = PropertySet.from_config(base)
    if overrides:
        props = props.with_overrides(overrides)
    elif preset_name_for(props) == base.name or base.name not in _presets():
        # No overrides: the base already is the config it describes.
        return base
    return props.to_config(derived_config_name(base.name, props), soc=base.soc)

"""Declarative platform-properties registry (pepc-style).

Every policy knob of the modelled platform is a typed, scoped,
range-validated property — a first-class sweep axis instead of a
bespoke dataclass field:

>>> from repro.props import apply_props, get_prop
>>> get_prop("timer_tick_hz").allowed()
'0..10000'
>>> config = apply_props("Cshallow", {"timer_tick_hz": 250,
...                                   "cstates.cc6.enable": "off"})
>>> config.name
'Cshallow+timer_tick_hz=250'

- :mod:`repro.props.registry` — :class:`PropDef`,
  :func:`register_prop`, pepc-style validation errors;
- :mod:`repro.props.builtin` — the built-in property table
  (C-state enables, governor, package policy, tick rate, SoC core
  count/frequency, network latency, fleet routing knobs);
- :mod:`repro.props.pset` — :class:`PropertySet` (frozen mapping,
  canonical ordering, content hash), named presets,
  :func:`apply_props` for hybrid configurations,
  :func:`resolve_config`, the shared (preset, overrides) resolution
  sweep and fleet cells key and build from, and the override-pair
  algebra those cells carry (:func:`normalize_props`,
  :func:`merge_props`, :func:`config_axis_label`).

``repro props list`` renders the registry; ``--set name=value`` on
``sweep``/``fleet``/``export`` grids over it. See
``docs/properties.md``.
"""

from repro.props import builtin as _builtin  # registers the built-ins
from repro.props.pset import (
    PropertySet,
    PropPairs,
    PropValue,
    ResolvedConfig,
    apply_props,
    config_axis_label,
    derived_config_name,
    merge_props,
    normalize_props,
    preset_name_for,
    preset_names,
    preset_props,
    render_overrides,
    render_value,
    resolve_config,
)
from repro.props.registry import (
    PROPS,
    SCOPES,
    PropDef,
    PropertyError,
    all_props,
    fleet_props,
    get_prop,
    machine_props,
    register_prop,
    suggest_names,
)

del _builtin

__all__ = [
    "PROPS",
    "SCOPES",
    "PropDef",
    "PropertyError",
    "PropPairs",
    "PropValue",
    "PropertySet",
    "ResolvedConfig",
    "all_props",
    "apply_props",
    "config_axis_label",
    "derived_config_name",
    "fleet_props",
    "get_prop",
    "machine_props",
    "merge_props",
    "normalize_props",
    "preset_name_for",
    "preset_names",
    "preset_props",
    "register_prop",
    "render_overrides",
    "render_value",
    "resolve_config",
    "suggest_names",
]

"""Declarative sweep grids: workloads x configs x rates x seeds.

The paper's headline results (Figs. 5-9) are all sweeps, so the
orchestration layer treats "one figure" as a :class:`SweepSpec` — a
grid that expands deterministically into :class:`ExperimentSpec`
cells. A cell is plain data: it names its workload, configuration and
seed instead of holding live objects, which makes it picklable for
worker processes, hashable for the result cache, and storable next to
the result it produced.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.props import PropertySet, get_prop, render_overrides, resolve_config
from repro.scenarios import registry as scenarios
from repro.server.configs import MachineConfig
from repro.units import MS
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.server.experiment import ExperimentResult
    from repro.server.machine import ServerMachine

#: Bump when the cell schema or measurement semantics change, so stale
#: cache entries from an incompatible layout can never be returned.
#: v2: cells are keyed by scenario (the registry name) instead of the
#: fixed workload tuple.
#: v3: cells are keyed by their resolved platform property set instead
#: of the config name, so a named preset and its explicit property
#: spelling (e.g. ``CPC1A`` vs ``Cshallow + package_policy=pc1a``)
#: share one cache entry.
#: v4: the registry gained machine-scoped P-state rows (``pstate.table``,
#: ``pstate.nominal``), so every resolved property set — and with it
#: every cell key — changed content.
SCHEMA_VERSION = 4

#: A platform-property override value (parsed, not the CLI spelling).
PropValue = bool | int | float | str

#: Canonical override pairs: sorted by name, hashable, JSON-friendly.
PropPairs = tuple[tuple[str, PropValue], ...]


def normalize_props(props: Any) -> PropPairs:
    """Canonicalize property overrides into sorted, validated pairs.

    Accepts a mapping or an iterable of (name, value) pairs (lists
    survive JSON round-trips); values may be CLI string spellings.
    Fleet-scoped properties are rejected — they configure a cluster,
    not a machine cell.
    """
    if props is None:
        return ()
    pairs = props.items() if isinstance(props, dict) else props
    seen: dict[str, PropValue] = {}
    for pair in pairs:
        name, value = pair
        prop = get_prop(name)
        if prop.scope == "fleet":
            raise ValueError(
                f"property '{name}' is fleet-scoped; use it on a fleet "
                "grid (repro fleet), not a machine cell"
            )
        if name in seen:
            raise ValueError(f"duplicate property override '{name}'")
        seen[name] = prop.parse(value)
    return tuple(sorted(seen.items()))


def normalize_control_props(props: Any) -> PropPairs:
    """Canonicalize controller knob overrides into sorted pairs.

    Accepts the same spellings as :func:`normalize_props`, but only
    the fleet-scoped controller knobs
    (:data:`repro.props.builtin.CONTROL_PROP_NAMES`). Pairs equal to
    the registry default are dropped, so an explicit default and an
    omitted knob resolve to the same cache key (the watermark-style
    aliasing rule, applied at normalization time).
    """
    from repro.props.builtin import CONTROL_PROP_NAMES

    if props is None:
        return ()
    pairs = props.items() if isinstance(props, dict) else props
    seen: dict[str, PropValue] = {}
    for pair in pairs:
        name, value = pair
        if name not in CONTROL_PROP_NAMES:
            raise ValueError(
                f"'{name}' is not a controller knob; control_props "
                f"accepts {CONTROL_PROP_NAMES}"
            )
        if name in seen:
            raise ValueError(f"duplicate property override '{name}'")
        seen[name] = get_prop(name).parse(value)
    return tuple(
        sorted(
            (name, value)
            for name, value in seen.items()
            if value != get_prop(name).default
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


def resolved_machine_props(config: str, props: PropPairs) -> PropertySet:
    """The full property set of ``config`` + overrides (key material)."""
    return resolve_config(config, props).props


def config_axis_label(config: str, props: PropPairs) -> str:
    """``Cshallow+timer_tick_hz=250``-style axis label."""
    if not props:
        return config
    return f"{config}+{render_overrides(dict(props))}"


def duration_for_rate(qps: float) -> int:
    """Measurement window sized to the offered rate.

    Low rates need long windows to observe enough idle periods; high
    rates need fewer wall-clock seconds for the same request count.
    """
    if qps <= 0:
        return 40 * MS
    if qps <= 10_000:
        return 250 * MS
    if qps <= 50_000:
        return 150 * MS
    if qps <= 150_000:
        return 100 * MS
    return 60 * MS


def warmup_for_duration(duration_ns: int) -> int:
    """Default warmup: long enough for queues and governors to settle."""
    return max(20 * MS, duration_ns // 6)


#: (scenario, preset) pairs whose workload already built successfully
#: this process. Preset validation builds the workload, and for trace
#: scenarios that parses the whole trace file — do it once per
#: distinct operating point, not once per cell/label.
_VALIDATED_PRESETS: set[tuple[str, str]] = set()


def _normalize_scenario(workload: str, scenario: str) -> tuple[str, str]:
    """Resolve the (workload, scenario) pair of a cell.

    ``scenario`` names the registry entry that builds the traffic;
    ``workload`` is the label results carry. Either may be omitted
    (they default to each other — every pre-registry cell spelled only
    a workload name), but the scenario must be registered.
    """
    scenario = scenario or workload
    if not scenario:
        raise KeyError("a cell needs a workload or scenario name")
    if not scenarios.is_registered(scenario):
        raise KeyError(
            f"unknown workload/scenario {scenario!r}; "
            f"have {scenarios.scenario_names()}"
        )
    return workload or scenario, scenario


@dataclass(frozen=True)
class WorkloadPoint:
    """One workload operating point of a sweep grid.

    ``scenario`` names the registry entry that builds the traffic
    (defaulting to ``workload``, so every historical spelling keeps
    working); ``duration_ns``/``warmup_ns`` override the spec-level
    window for this point only (e.g. the idle point of a power curve
    can use a short window while loaded points keep rate-sized ones).
    ``props`` carries point-level platform-property overrides, merged
    over (and winning against) the grid's ``props`` axis.
    """

    workload: str = ""
    qps: float = 0.0
    preset: str = "low"
    duration_ns: int | None = None
    warmup_ns: int | None = None
    scenario: str = ""
    props: PropPairs = ()

    def __post_init__(self) -> None:
        workload, scenario = _normalize_scenario(self.workload, self.scenario)
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "props", normalize_props(self.props))
        if self.qps < 0:
            raise ValueError(f"offered QPS cannot be negative: {self.qps}")
        if (
            scenarios.get(scenario).uses_preset
            and (scenario, self.preset) not in _VALIDATED_PRESETS
        ):
            # Fail at construction, not inside a worker pool: building
            # the workload validates the preset (or, for trace
            # scenarios, the trace file) — cached per operating point
            # so per-cell labels don't re-parse large traces.
            self.build()
            _VALIDATED_PRESETS.add((scenario, self.preset))
        # Canonical numeric type: int and float spellings of one rate
        # must compare, hash and cache identically.
        object.__setattr__(self, "qps", float(self.qps))

    def build(self) -> Workload:
        """Instantiate this point's workload."""
        return scenarios.build(self.scenario, self.qps, self.preset)

    def label(self) -> str:
        """Short human label for tables and progress lines."""
        kind = scenarios.get(self.scenario).kind
        if kind == "rate":
            if self.qps == 0:
                return "idle"
            return f"{self.scenario}@{self.qps:g}"
        if kind == "preset":
            return f"{self.scenario}:{self.preset}"
        if kind == "trace":
            trace = Path(self.preset).stem if self.preset else "example"
            return f"{self.scenario}:{trace}"
        return self.scenario


def resolve_window(
    point: WorkloadPoint,
    duration_ns: int | None = None,
    warmup_ns: int | None = None,
    rate_divisor: int = 1,
) -> tuple[int, int]:
    """Resolve one point's (duration, warmup) measurement window.

    Point-level overrides win, then the grid-level values, then the
    rate-sized defaults — the precedence every grid kind
    (:class:`SweepSpec`, the fleet's spec) shares. ``rate_divisor``
    scales the rate the default window is sized for: a fleet point's
    QPS is the *aggregate* offered load, but idle-period statistics
    accrue per server, so an N-server grid sizes windows to the
    per-server rate (low per-server rates need long windows).
    """
    duration = point.duration_ns
    if duration is None:
        duration = duration_ns
    if duration is None:
        duration = duration_for_rate(point.build().offered_qps / rate_divisor)
    warmup = point.warmup_ns
    if warmup is None:
        warmup = warmup_ns
    if warmup is None:
        warmup = warmup_for_duration(duration)
    return duration, warmup


def memcached_points(
    rates: tuple[float, ...] | list[float],
) -> tuple[WorkloadPoint, ...]:
    """Rate list -> memcached points (rate 0 = the fully idle server)."""
    return tuple(WorkloadPoint("memcached", qps=float(r)) for r in rates)


def preset_points(
    workload: str, presets: tuple[str, ...] | list[str]
) -> tuple[WorkloadPoint, ...]:
    """Preset list -> mysql/kafka points."""
    return tuple(WorkloadPoint(workload, preset=p) for p in presets)


def canonical_point(scenario: str, qps: float, preset: str) -> dict[str, Any]:
    """Canonical (scenario, qps, preset) triple for cache keys.

    Different spellings of one physical operating point must share a
    cache entry: rate 0 is the idle server whatever the scenario is
    named, the preset only counts for preset/trace-driven scenarios
    (trace points are keyed by trace *contents*), and the rate only
    counts for rate-driven ones. Shared by every cell kind that keys a
    result store (:class:`ExperimentSpec`, the fleet's cells).
    """
    kind = scenarios.get(scenario).kind
    if kind == "rate":
        if qps == 0:
            # Every rate-driven scenario at rate 0 is the same fully
            # idle server.
            return {"scenario": "idle", "qps": 0.0, "preset": ""}
        return {"scenario": scenario, "qps": qps, "preset": ""}
    if kind == "preset":
        return {"scenario": scenario, "qps": 0.0, "preset": preset}
    if kind == "trace":
        # Key the trace *contents*: a re-recorded trace must
        # re-simulate, and alias spellings of one file (relative vs
        # absolute, the bundled-default aliases) must share an entry.
        token = scenarios.get(scenario).trace_token(preset)
        return {"scenario": scenario, "qps": 0.0, "preset": token}
    return {"scenario": scenario, "qps": 0.0, "preset": ""}


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-determined sweep cell (a single ``run_experiment``).

    Every field is plain data, so a cell round-trips through JSON and
    pickle; :meth:`key` derives the content hash under which the cell's
    result is cached.
    """

    workload: str
    qps: float
    preset: str
    config: str
    seed: int
    duration_ns: int
    warmup_ns: int
    scenario: str = ""
    #: Platform-property overrides applied over ``config`` (the
    #: canonical pairs :func:`normalize_props` produces).
    props: PropPairs = ()

    def __post_init__(self) -> None:
        resolve_config(self.config)  # friendly unknown-config error
        object.__setattr__(self, "props", normalize_props(self.props))
        if self.props:
            # Cross-field constraints (e.g. CPC1A forbids CC6) only
            # surface when the hybrid config is built — fail at
            # construction, not inside a worker pool.
            resolve_config(self.config, self.props)
        workload, scenario = _normalize_scenario(self.workload, self.scenario)
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "scenario", scenario)
        if self.duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_ns}")
        if self.warmup_ns < 0:
            raise ValueError(f"warmup must be non-negative, got {self.warmup_ns}")
        # Same canonicalization as WorkloadPoint: the cache key hashes
        # a JSON rendering, so 40000 and 40000.0 must not differ.
        object.__setattr__(self, "qps", float(self.qps))

    # -- construction ------------------------------------------------------
    def build_workload(self) -> Workload:
        """Instantiate the cell's workload."""
        return scenarios.build(self.scenario, self.qps, self.preset)

    def build_config(self) -> MachineConfig:
        """The cell's machine configuration.

        The result of applying the cell's property overrides to its
        named base config; the returned config's name is canonical
        (a resolved set matching a preset takes the preset's name).
        Every cell of one (config, props) pair shares the object
        (:func:`repro.props.resolve_config`); it is frozen.
        """
        return resolve_config(self.config, self.props).config

    def resolved_props(self) -> PropertySet:
        """The cell's full platform property set.

        Shared like :meth:`build_config`'s config, and never stored on
        the cell: a pickled cell carries its plain fields and its
        cached key, not a property set.
        """
        return resolve_config(self.config, self.props).props

    # -- cell protocol (repro.cell) ----------------------------------------
    def build(self) -> "ServerMachine":
        """Construct a fresh machine for this cell."""
        from repro.server.machine import ServerMachine

        return ServerMachine(self.build_config(), seed=self.seed)

    def warm_slot(self) -> tuple[str, PropPairs]:
        """Warm-reuse key: one machine per (config, overrides) pair."""
        return (self.config, self.props)

    def recycle(self, runtime: "ServerMachine") -> None:
        """Rewind a checkpointed machine into this cell's fresh state."""
        runtime.recycle(self.build_config(), self.seed)

    def collect(
        self, runtime: "ServerMachine", workload: Workload
    ) -> "ExperimentResult":
        """Assemble the result from a measured machine."""
        from repro.server.experiment import collect_result

        return collect_result(runtime, workload, self.duration_ns, self.seed)

    @property
    def preset_label(self) -> str:
        """The preset, when it selects this cell's operating point.

        Rate-driven scenarios carry the field's default value, which
        would mislabel CSV rows; report it only where it matters.
        """
        return self.preset if scenarios.get(self.scenario).uses_preset else ""

    # -- identity ----------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON- and pickle-friendly).

        Equal to ``dataclasses.asdict(self)``: every field is a scalar
        or a tuple of scalar pairs, so no copy is needed.
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`as_dict`."""
        return cls(**data)

    def key(self) -> str:
        """Content hash identifying this cell in a result store.

        The hash covers the *canonical* cell, so different spellings
        of the same physical experiment share a cache entry: rate 0
        is the idle server whatever the scenario is named, the preset
        only counts for preset/trace-driven scenarios, the rate only
        counts for rate-driven ones, and the machine is keyed by its
        *resolved platform property set* — ``config="CPC1A"`` and
        ``config="Cshallow", props=(("package_policy", "pc1a"),)``
        hash identically (schema v3).

        The hash is cached on the (frozen) cell: the session consults
        it several times per cell — cache pre-pass, worker dispatch,
        deterministic reordering — and hashing dominates the
        orchestration cost of very short cells. For trace cells this
        matches the registry's documented invariant (trace files are
        assumed stable for the lifetime of one process; each new
        process re-hashes them).
        """
        cached = getattr(self, "_key", None)
        if cached is not None:
            return cached
        payload = {
            "schema": SCHEMA_VERSION,
            **canonical_point(self.scenario, self.qps, self.preset),
            "props": self.resolved_props().as_dict(),
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "warmup_ns": self.warmup_ns,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:24]
        object.__setattr__(self, "_key", digest)
        return digest

    def label(self) -> str:
        """Short human label for logs and progress lines."""
        point = WorkloadPoint(
            self.workload, self.qps, self.preset, scenario=self.scenario
        )
        config = config_axis_label(self.config, self.props)
        return f"{config}/{point.label()}/seed{self.seed}"


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid.

    Expansion order is deterministic: configs (outermost) x property
    override sets x workload points x seeds (innermost), matching the
    CSV layout the ``export`` command has always produced (the props
    axis defaults to one empty override set, so prop-less grids keep
    their historical expansion exactly).

    ``props`` is the platform-property axis: each entry is one
    override set (mapping or pairs; see :func:`normalize_props`), and
    the grid crosses it with every config — ``repro sweep --set
    timer_tick_hz=0,250`` builds a two-entry axis.
    """

    workloads: tuple[WorkloadPoint, ...]
    configs: tuple[str, ...]
    seeds: tuple[int, ...] = (0,)
    #: Spec-level window; None sizes each cell's window to its rate.
    duration_ns: int | None = None
    #: Spec-level warmup; None applies :func:`warmup_for_duration`.
    warmup_ns: int | None = None
    #: Property-override axis (one entry per override set).
    props: tuple[PropPairs, ...] = ((),)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("a sweep needs at least one workload point")
        if not self.configs:
            raise ValueError("a sweep needs at least one config")
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if not self.props:
            raise ValueError(
                "a sweep needs at least one property override set "
                "(the default ((),) is the no-override axis)"
            )
        object.__setattr__(
            self, "props", tuple(normalize_props(p) for p in self.props)
        )
        for name in self.configs:
            resolve_config(name)  # friendly unknown-config error
        # Repeats would double-weight cells in the per-seed means and
        # understate the confidence intervals.
        for label, values in (
            ("seeds", self.seeds),
            ("configs", self.configs),
            ("workload points", self.workloads),
            ("property override sets", self.props),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {label} in sweep: {values}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_ns}")
        # Distinct spellings of one physical cell (idle vs memcached@0,
        # preset points differing only in the ignored rate, a named
        # preset vs its explicit property spelling) share a canonical
        # key; they would double-weight aggregates too.
        keys = [cell.key() for cell in self.cells()]
        if len(set(keys)) != len(keys):
            raise ValueError(
                "sweep contains equivalent spellings of the same experiment "
                "(e.g. WorkloadPoint('idle') and WorkloadPoint('memcached', "
                "qps=0), or a preset listed next to its property spelling)"
            )

    def _window(self, point: WorkloadPoint) -> tuple[int, int]:
        """Resolve (duration, warmup) for one point."""
        return resolve_window(point, self.duration_ns, self.warmup_ns)

    def cells(self) -> list[ExperimentSpec]:
        """Expand the grid into its experiment cells.

        The expansion is cached (the spec is frozen), so validation
        in ``__post_init__`` and the session share one pass.
        """
        cached = getattr(self, "_expanded", None)
        if cached is None:
            # Windows are config-independent; resolve once per point.
            windows = [self._window(point) for point in self.workloads]
            cached = []
            for config in self.configs:
                for overrides in self.props:
                    for point, (duration, warmup) in zip(self.workloads, windows):
                        for seed in self.seeds:
                            cached.append(ExperimentSpec(
                                workload=point.workload,
                                qps=point.qps,
                                preset=point.preset,
                                config=config,
                                seed=seed,
                                duration_ns=duration,
                                warmup_ns=warmup,
                                scenario=point.scenario,
                                props=merge_props(overrides, point.props),
                            ))
            object.__setattr__(self, "_expanded", cached)
        return list(cached)

    def __len__(self) -> int:
        return (
            len(self.configs)
            * len(self.props)
            * len(self.workloads)
            * len(self.seeds)
        )

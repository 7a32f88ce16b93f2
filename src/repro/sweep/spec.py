"""Declarative sweep grids: workloads x configs x rates x seeds.

The paper's headline results (Figs. 5-9) are all sweeps, so the
orchestration layer treats "one figure" as a :class:`SweepSpec` — a
grid that expands deterministically into :class:`ExperimentSpec`
cells. A cell is plain data: it names its workload, configuration and
seed instead of holding live objects, which makes it picklable for
worker processes, hashable for the result cache, and storable next to
the result it produced.

What every cell kind shares — its workload point, window and seed,
checked once when the cell is built, and the store key, label and
plain-data form derived from them — lives in :class:`CellCore`; what
every grid kind shares lives in :class:`GridCore`. The fleet's cells
and grids (:mod:`repro.fleet.spec`) build on both.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

from repro.cell import check_window
from repro.props import (
    PropertySet,
    PropPairs,
    config_axis_label,
    merge_props,
    normalize_props,
    resolve_config,
)
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


def _check_point(point: WorkloadPoint | CellCore) -> None:
    """Normalize and validate one operating point, in place.

    ``scenario`` names the registry entry that builds the traffic;
    ``workload`` is the label results carry. Either may be omitted
    (they default to each other — every pre-registry cell spelled only
    a workload name), but the scenario must be registered. The rate
    must not be negative and becomes a float (int and float spellings
    of one rate must compare, hash and cache identically), and a
    preset or trace the scenario cannot build fails here, not inside a
    worker pool.
    """
    scenario = point.scenario or point.workload
    if not scenario:
        raise KeyError("a cell needs a workload or scenario name")
    if not scenarios.is_registered(scenario):
        raise KeyError(
            f"unknown workload/scenario {scenario!r}; "
            f"have {scenarios.scenario_names()}"
        )
    object.__setattr__(point, "workload", point.workload or scenario)
    object.__setattr__(point, "scenario", scenario)
    if point.qps < 0:
        raise ValueError(f"offered QPS cannot be negative: {point.qps}")
    object.__setattr__(point, "qps", float(point.qps))
    if (
        scenarios.get(scenario).uses_preset
        and (scenario, point.preset) not in _VALIDATED_PRESETS
    ):
        # Building the workload validates the preset (or, for trace
        # scenarios, the trace file) — cached per operating point so
        # per-cell checks don't re-parse large traces.
        scenarios.build(scenario, point.qps, point.preset)
        _VALIDATED_PRESETS.add((scenario, point.preset))


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
        _check_point(self)
        object.__setattr__(self, "props", normalize_props(self.props))

    def build(self) -> Workload:
        """Instantiate this point's workload."""
        return scenarios.build(self.scenario, self.qps, self.preset)

    def label(self) -> str:
        """Short human label for tables and progress lines."""
        return scenarios.get(self.scenario).point_label(self.qps, self.preset)


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


_C = TypeVar("_C", bound="CellCore")


class CellCore:
    """What every cell kind shares: its workload point, window and seed.

    A mixin for the frozen cell dataclasses (:class:`ExperimentSpec`,
    :class:`~repro.fleet.spec.FleetCell`), which declare these fields
    in their own positional order. :meth:`_check_cell` normalizes and
    validates them once, when the cell is built; everything else here
    only reads them. A subclass supplies :meth:`_key_fields` (what it
    adds to the key payload) and :meth:`_axis_label` (the part of the
    label before the point).
    """

    __dataclass_fields__: ClassVar[dict[str, Any]]
    workload: str
    qps: float
    preset: str
    scenario: str
    seed: int
    duration_ns: int
    warmup_ns: int

    def _check_cell(self) -> None:
        """Normalize and validate the point and the window."""
        _check_point(self)
        check_window(self.duration_ns, self.warmup_ns)

    def _key_fields(self) -> dict[str, Any]:
        raise NotImplementedError

    def _axis_label(self) -> str:
        raise NotImplementedError

    def build_workload(self) -> Workload:
        """Instantiate the cell's workload (one arrival stream)."""
        return scenarios.build(self.scenario, self.qps, self.preset)

    @property
    def preset_label(self) -> str:
        """The preset, when it selects this cell's operating point.

        Rate-driven scenarios carry the field's default value, which
        would mislabel CSV rows; report it only where it matters.
        """
        return self.preset if scenarios.get(self.scenario).uses_preset else ""

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON- and pickle-friendly).

        Equal to ``dataclasses.asdict(self)``: every field is a scalar
        or a tuple of scalars, so no copy is needed.
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @classmethod
    def from_dict(cls: type[_C], data: dict[str, Any]) -> _C:
        """Inverse of :meth:`as_dict`."""
        return cls(**data)

    def key(self) -> str:
        """Content hash identifying this cell in a result store.

        The hash covers the *canonical* cell, so different spellings
        of the same physical experiment share a cache entry: the point
        enters as :meth:`~repro.scenarios.registry.Scenario.key_point`
        renders it, and the machines as their resolved platform
        property sets (:meth:`_key_fields`).

        The hash is cached on the (frozen) cell: the session consults
        it several times per cell — cache pre-pass, worker dispatch,
        deterministic reordering — and hashing dominates the
        orchestration cost of very short cells. For trace cells this
        matches the registry's documented invariant (trace files are
        assumed stable for the lifetime of one process; each new
        process re-hashes them).
        """
        cached: str | None = getattr(self, "_key", None)
        if cached is not None:
            return cached
        payload = {
            **self._key_fields(),
            **scenarios.get(self.scenario).key_point(self.qps, self.preset),
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
        point = scenarios.get(self.scenario).point_label(self.qps, self.preset)
        return f"{self._axis_label()}/{point}/seed{self.seed}"


@dataclass(frozen=True)
class ExperimentSpec(CellCore):
    """One fully-determined sweep cell (a single server measurement).

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
    #: canonical pairs :func:`~repro.props.normalize_props` produces).
    props: PropPairs = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "props", normalize_props(self.props))
        # Unknown configs, and hybrids that break a cross-field
        # constraint (e.g. CPC1A forbids CC6), fail at construction,
        # not inside a worker pool.
        resolve_config(self.config, self.props)
        self._check_cell()

    # -- construction ------------------------------------------------------
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

    # -- identity ----------------------------------------------------------
    def _key_fields(self) -> dict[str, Any]:
        # The machine is keyed by its *resolved platform property set*:
        # ``config="CPC1A"`` and ``config="Cshallow",
        # props=(("package_policy", "pc1a"),)`` hash identically
        # (schema v3).
        return {"schema": SCHEMA_VERSION, "props": self.resolved_props().as_dict()}

    def _axis_label(self) -> str:
        return config_axis_label(self.config, self.props)


class GridCore:
    """What every grid kind shares: its checks and its cached expansion.

    A mixin for the frozen grid dataclasses (:class:`SweepSpec`,
    :class:`~repro.fleet.spec.FleetSpec`). A subclass supplies
    :meth:`_expand` and calls :meth:`_check_grid` once its axes are in
    canonical form.
    """

    duration_ns: int | None

    def _expand(self) -> list[Any]:
        raise NotImplementedError

    def _check_grid(
        self, noun: str, axes: tuple[tuple[str, tuple[Any, ...]], ...], alias: str
    ) -> None:
        """Reject empty and repeated axes, a bad window and aliases.

        ``axes`` holds ``(name, values)`` per axis. Repeats would
        double-weight cells in the per-seed means and understate the
        confidence intervals; so would distinct spellings of one
        physical cell, which share a canonical key (``alias`` gives an
        example for the error message).
        """
        for name, values in axes:
            if not values:
                raise ValueError(f"a {noun} needs at least one {name}")
        for name, values in axes:
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name}s in {noun}: {values}")
        if self.duration_ns is not None and self.duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_ns}")
        keys = [cell.key() for cell in self._cells()]
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"{noun} contains equivalent spellings of the same "
                f"experiment ({alias})"
            )

    def _cells(self) -> list[Any]:
        cached: list[Any] | None = getattr(self, "_expanded", None)
        if cached is None:
            cached = self._expand()
            object.__setattr__(self, "_expanded", cached)
        return cached

    def cells(self) -> list[Any]:
        """Expand the grid into its cells.

        The expansion is cached (the spec is frozen), so validation
        in ``__post_init__`` and the session share one pass.
        """
        return list(self._cells())

    def __len__(self) -> int:
        return len(self._cells())


@dataclass(frozen=True)
class SweepSpec(GridCore):
    """A declarative experiment grid.

    Expansion order is deterministic: configs (outermost) x property
    override sets x workload points x seeds (innermost), matching the
    CSV layout the ``export`` command has always produced (the props
    axis defaults to one empty override set, so prop-less grids keep
    their historical expansion exactly).

    ``props`` is the platform-property axis: each entry is one
    override set (mapping or pairs; see
    :func:`~repro.props.normalize_props`), and the grid crosses it
    with every config — ``repro sweep --set timer_tick_hz=0,250``
    builds a two-entry axis.
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
        object.__setattr__(
            self, "props", tuple(normalize_props(p) for p in self.props)
        )
        for name in self.configs:
            resolve_config(name)  # friendly unknown-config error
        self._check_grid(
            "sweep",
            (
                ("workload point", self.workloads),
                ("config", self.configs),
                ("seed", self.seeds),
                ("property override set", self.props),
            ),
            "e.g. WorkloadPoint('idle') and WorkloadPoint('memcached', "
            "qps=0), or a preset listed next to its property spelling",
        )

    def _expand(self) -> list[ExperimentSpec]:
        # Windows are config-independent; resolve once per point.
        windows = [
            resolve_window(point, self.duration_ns, self.warmup_ns)
            for point in self.workloads
        ]
        return [
            ExperimentSpec(
                workload=point.workload,
                qps=point.qps,
                preset=point.preset,
                config=config,
                seed=seed,
                duration_ns=duration,
                warmup_ns=warmup,
                scenario=point.scenario,
                props=merge_props(overrides, point.props),
            )
            for config in self.configs
            for overrides in self.props
            for point, (duration, warmup) in zip(self.workloads, windows)
            for seed in self.seeds
        ]

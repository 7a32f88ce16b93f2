"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       one experiment (workload x config) with a result summary;
``compare``   paired Cshallow-vs-CPC1A comparison at one load;
``idle``      Table 1-style idle power across the three configs;
``latency``   the PC1A transition-latency decomposition (Sec. 5.5);
``area``      the APC area-overhead breakdown (Sec. 5.1-5.3);
``export``    the Figs. 6/7 re-plot CSV over a config x rate grid;
``sweep``     run a scenario x config x rate x seed grid in parallel;
``fleet``     sweep multi-server clusters (routing x config x rate);
``props``     inspect the platform-property registry (list/info);
``store``     result-store maintenance (``verify`` / ``gc``);
``scenarios`` list the registered traffic scenarios;
``validate``  fast end-to-end check of the headline paper anchors;
``lint``      static determinism/checkpoint-safety analysis (RPR rules).

Sweeps
------
``sweep`` is the scale-out entry point: it expands a declarative grid
(:class:`repro.sweep.SweepSpec`), fans the cells out over a worker
pool, caches each cell's result under a content-hash key, and writes
both a per-cell CSV and a per-seed mean/CI summary::

    python -m repro sweep --workload memcached \\
        --configs Cshallow,CPC1A --rates 0,4000,25000,100000 \\
        --seeds 1,2,3 --workers 8 --store results/sweep_cache \\
        --out results/sweep.csv

Re-running with an unchanged grid is free: every cell is a cache hit.
``export`` is the figure-oriented single-seed grid: it runs and
reports exactly like ``sweep`` (same flags for workers, store,
``--stats-json`` and robustness, same summary and exit codes) but
writes the fixed Figs. 6/7 column set, one row per ``--rates`` entry.

Scenarios
---------
``--scenario`` sweeps a registered scenario on its default grid
(override with ``--rates``/``--presets``/``--trace``), and
``repro scenarios list`` shows everything the registry knows::

    python -m repro scenarios list
    python -m repro sweep --scenario nginx --configs Cshallow,CPC1A
    python -m repro sweep --scenario replay --trace traces/prod.csv

Platform properties
-------------------
Every policy knob of the modelled platform is a registered property
(``repro props list``); ``--set NAME=VALUE[,VALUE...]`` grids any of
them as a first-class sweep axis::

    python -m repro props list
    python -m repro sweep --configs Cshallow \\
        --set timer_tick_hz=0,100,250 --set cstates.cc1e.enable=on,off
    python -m repro fleet --set fleet.n_servers=2,8 --set governor=menu

On ``fleet`` the cluster flags (``--servers``, ``--routing``,
``--control``, ``--dispatch-latency-us``, ``--pack-watermark``) are
the grid's leading axes; a ``--set`` of the same ``fleet.*`` property
replaces its flag's axis.

``--stats-json`` writes a machine-readable run summary (cells, cache
hits/misses, rows, fault counters) for CI assertions.
``--progress``/``--no-progress`` controls the throttled per-cell
progress lines on stderr (default: only when stderr is a TTY; at most
~1 line per second however wide the grid is).

Robustness
----------
The three grid commands (``sweep``, ``export``, ``fleet``) run on a
supervised execution plane (``docs/robustness.md``):
dead workers respawn, failing cells retry under
``--max-retries``/``--retry-backoff``, stuck cells are killed past
``--cell-deadline``, and cells that exhaust their budget are
quarantined (report written beside the CSV; exit code 1) while the
rest of the grid completes. With ``--store``, a crash-safe journal
records completed cells so ``--resume`` finishes an interrupted
campaign without re-simulating finished work; Ctrl-C flushes the
partial CSV durably and exits 130. ``repro store verify`` / ``repro
store gc`` audit and clean a store whose records may have been torn
by crashes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import scenarios as scenario_registry
from repro.analysis.report import PaperComparison, comparison_table, format_table
from repro.analysis.savings import savings_between
from repro.cell import run_cell
from repro.core.area import SkxAreaModel
from repro.core.latency import Pc1aLatencyModel
from repro.props import (
    PropertyError,
    all_props,
    get_prop,
    preset_names,
    preset_props,
    render_value,
)
from repro.scenarios import scenario_names
from repro.server.experiment import ExperimentResult
from repro.sweep import (
    CellPolicy,
    ExperimentSpec,
    JournalError,
    ResultStore,
    RunJournal,
    StreamingCsvWriter,
    SweepResults,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
    default_workers,
    flatten_result,
    preset_points,
)
from repro.units import MS

#: Historical grid defaults (memcached's rate axis; mysql/kafka's
#: shared presets) used when neither ``--scenario`` nor an explicit
#: grid narrows them.
DEFAULT_RATES = "0,4000,10000,25000,50000,100000"
DEFAULT_PRESETS = "low,high"


class ThrottledProgress:
    """Per-cell progress lines, throttled for wide grids.

    Unthrottled per-cell printing measurably drags sweeps whose cells
    finish every few milliseconds, so a line is emitted at most about
    once per second (or every ``stride``-th cell, whichever comes
    first) plus a final line for the last cell. The cell label is only
    rendered when a line is actually printed.
    """

    def __init__(
        self, total: int, stream=None, min_interval_s: float = 1.0, stride: int = 100
    ):
        self.total = total
        self.count = 0
        self.emitted = 0
        self._stream = sys.stderr if stream is None else stream
        self._min_interval_s = min_interval_s
        self._stride = max(1, stride)
        # -inf, not 0: time.monotonic() is time since boot, so a zero
        # sentinel would swallow the first line on a freshly booted
        # machine whose uptime is below the throttle interval.
        self._last_emit = float("-inf")

    def __call__(self, cell: ExperimentSpec) -> None:
        self.count += 1
        now = time.monotonic()
        if (
            now - self._last_emit < self._min_interval_s
            and self.count % self._stride != 0
            and self.count != self.total
        ):
            return
        self._last_emit = now
        self.emitted += 1
        print(f"[{self.count}/{self.total}] {cell.label()}",
              file=self._stream, flush=True)


def _progress_for(args: argparse.Namespace, total: int) -> ThrottledProgress | None:
    """The sweep progress callback implied by --progress/--no-progress.

    The default (no flag) shows progress only on interactive runs:
    piping a sweep into a file or CI log should not interleave
    thousands of progress lines with the results.
    """
    enabled = args.progress
    if enabled is None:
        enabled = sys.stderr.isatty()
    return ThrottledProgress(total) if enabled else None


def _add_run_args(parser: argparse.ArgumentParser, qps: bool = True) -> None:
    """One experiment's workload, window and seed (run, compare, export)."""
    parser.add_argument(
        "--workload", default="memcached", choices=list(scenario_names())
    )
    if qps:
        parser.add_argument(
            "--qps", type=float, default=20_000,
            help="offered rate (rate-driven scenarios)",
        )
    parser.add_argument(
        "--preset", default="low", help="preset (mysql/kafka) or trace path (replay)"
    )
    parser.add_argument("--duration-ms", type=int, default=100)
    parser.add_argument("--warmup-ms", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)


def _add_grid_args(
    parser: argparse.ArgumentParser, configs: str, out: str, workers: int,
    fleet: bool = False,
) -> None:
    """What every grid command (export, sweep, fleet) takes."""
    parser.add_argument(
        "--configs", default=configs, help="comma-separated config names"
    )
    parser.add_argument(
        "--rates", default=None,
        help="comma-separated offered rates (rate scenarios; 0 = idle; "
             f"default {DEFAULT_RATES})",
    )
    parser.add_argument(
        "--workers", type=int, default=workers,
        help="worker processes (0 = one per core, REPRO_SWEEP_WORKERS)",
    )
    parser.add_argument(
        "--store", default=None, help="result-cache directory (optional)"
    )
    parser.add_argument("--out", default=out)
    parser.add_argument(
        "--stats-json", default=None,
        help="write machine-readable run stats (cells, cache hits) here",
    )
    scope_note = (
        "fleet-scoped names (fleet.*) configure the cluster and replace "
        "their flag's axis"
        if fleet
        else "machine-scoped names only (see 'repro props list')"
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE[,VALUE...]",
        dest="set_props",
        help="platform-property override; a comma list of values grids "
             f"the axis (repeat --set for more properties; {scope_note})",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--progress", action="store_true", default=None, dest="progress",
        help="print throttled per-cell progress to stderr "
             "(default: only when stderr is a TTY)",
    )
    group.add_argument(
        "--no-progress", action="store_false", dest="progress",
        help="suppress per-cell progress output",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip cells journaled by a previous run of this store "
             "(requires --store; the journal lives beside it)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="extra attempts per cell before quarantine (default 3)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
        help="base delay before a retry, doubling per attempt (default 0.05)",
    )
    parser.add_argument(
        "--cell-deadline", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget; a stuck cell's worker is "
             "killed and the cell retried (default: no deadline)",
    )
    parser.add_argument(
        "--quarantine-report", default=None, metavar="PATH",
        help="where to write the quarantine report when cells exhaust "
             "their retries (default: <out>.quarantine.json)",
    )


def _add_axis_args(parser: argparse.ArgumentParser) -> None:
    """The scenario, seed and window axes sweep and fleet share."""
    parser.add_argument(
        "--workload", default="memcached", choices=list(scenario_names())
    )
    parser.add_argument(
        "--scenario", default=None, choices=list(scenario_names()),
        help="sweep a registered scenario on its default grid "
             "(overrides --workload; see 'repro scenarios list')",
    )
    parser.add_argument(
        "--presets", default=None,
        help=f"comma-separated presets (mysql/kafka; default {DEFAULT_PRESETS})",
    )
    parser.add_argument(
        "--trace", default=None,
        help="trace file for --scenario replay (default: bundled example)",
    )
    parser.add_argument("--preset", default="low", help=argparse.SUPPRESS)
    parser.add_argument(
        "--seeds", default="1", help="comma-separated seeds; >1 adds CI"
    )
    parser.add_argument(
        "--duration-ms", type=int, default=0,
        help="window per cell (0 = size each window to its rate)",
    )
    parser.add_argument(
        "--warmup-ms", type=int, default=None,
        help="warmup per cell (default: derived from the window)",
    )


def _csv_list(
    value: str, flag: str, noun: str, convert: Callable = str
) -> tuple:
    """A comma-list flag -> its converted items (blank entries dropped)."""
    items = tuple(convert(item.strip()) for item in value.split(",") if item.strip())
    if not items:
        raise SystemExit(f"{flag} must list at least one {noun}")
    return items


def _cell_policy(args: argparse.Namespace) -> CellPolicy:
    try:
        return CellPolicy(
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff,
            deadline_s=args.cell_deadline,
        )
    except ValueError as error:
        raise SystemExit(f"invalid retry policy: {error}") from None


def _open_journal(args: argparse.Namespace, store) -> RunJournal | None:
    """The run journal for this sweep (``<store>/journal.jsonl``).

    Without a store there is nothing to resume from (results would be
    re-simulated regardless), so no journal is kept and ``--resume``
    is rejected.
    """
    if store is None:
        if args.resume:
            raise SystemExit(
                "--resume requires --store (completed cells are "
                "served from the store; the journal lives beside it)"
            )
        return None
    try:
        return RunJournal(
            Path(store.root) / "journal.jsonl", resume=args.resume
        )
    except JournalError as error:
        raise SystemExit(str(error)) from None


def _handle_quarantined(args: argparse.Namespace, results) -> int:
    """Write the quarantine report; nonzero exit when cells were lost."""
    if not results.quarantined:
        return 0
    report_path = Path(args.quarantine_report or f"{args.out}.quarantine.json")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps({
        "quarantined": [cell.as_dict() for cell in results.quarantined],
    }, indent=1, sort_keys=True) + "\n")
    print(
        f"WARNING: {len(results.quarantined)} cell(s) quarantined after "
        f"exhausting retries; report written to {report_path}",
        file=sys.stderr,
    )
    return 1


def _interrupt_summary(
    args: argparse.Namespace, writer, journal, total: int, store
) -> int:
    """Ctrl-C: make partial output durable and report what remains."""
    completed = writer.rows
    writer.close()
    if journal is not None:
        journal.close()
    hint = " (finish with --resume)" if store is not None else ""
    print(
        f"interrupted: {completed}/{total} row(s) durable in {args.out}; "
        f"{max(0, total - completed)} cell(s) remaining{hint}",
        file=sys.stderr,
    )
    return 130


def _resolve_workers(workers: int) -> int:
    """--workers -> pool size (0 = one per core; negatives rejected)."""
    if workers < 0:
        raise SystemExit("--workers must be >= 0 (0 = one per core)")
    if workers:
        return workers
    try:
        return default_workers()
    except ValueError as error:  # bad REPRO_SWEEP_WORKERS override
        raise SystemExit(str(error)) from None


def summarize(result: ExperimentResult) -> str:
    """Human-readable one-result summary."""
    rows = [
        ["config", result.config_name],
        ["workload", result.workload_name],
        ["offered QPS", f"{result.offered_qps:,.0f}"],
        ["achieved QPS", f"{result.achieved_qps:,.0f}"],
        ["utilization", f"{result.utilization:.1%}"],
        ["all-cores-idle", f"{result.all_idle_fraction:.1%}"],
        ["SoC power", f"{result.package_power_w:.2f} W"],
        ["DRAM power", f"{result.dram_power_w:.2f} W"],
        ["total power", f"{result.total_power_w:.2f} W"],
        ["avg latency", f"{result.latency.mean_us:.1f} us"],
        ["p99 latency", f"{result.latency.p99_us:.1f} us"],
    ]
    if result.package_residency:
        dominant = max(result.package_residency, key=result.package_residency.get)
        rows.append([
            "dominant package state",
            f"{dominant} ({result.package_residency[dominant]:.1%})",
        ])
    if result.pc1a_entries:
        rows.append(["PC1A residency", f"{result.pc1a_residency():.1%}"])
        rows.append(["PC1A transitions", f"{result.pc1a_exits}"])
        rows.append(["mean PC1A exit", f"{result.pc1a_mean_exit_ns:.0f} ns"])
    if result.pc6_entries:
        rows.append(["PC6 residency", f"{result.pc6_residency():.1%}"])
        rows.append(["PC6 entries", f"{result.pc6_entries}"])
    return format_table(["metric", "value"], rows)


def _run_cells(
    args: argparse.Namespace, configs: Sequence[str]
) -> list[ExperimentSpec]:
    """run/compare's cells, one per config, all checked before any run.

    The window is checked first, so its errors name the flag.
    """
    if args.duration_ms <= 0:
        raise SystemExit(f"--duration-ms must be positive, got {args.duration_ms}")
    if args.warmup_ms < 0:
        raise SystemExit(f"--warmup-ms must be non-negative, got {args.warmup_ms}")
    try:
        return [
            ExperimentSpec(
                workload=args.workload,
                qps=args.qps,
                preset=args.preset,
                config=config,
                seed=args.seed,
                duration_ns=args.duration_ms * MS,
                warmup_ns=args.warmup_ms * MS,
            )
            for config in configs
        ]
    except (KeyError, ValueError, OSError) as error:
        # OSError: a trace workload naming a missing/unreadable file.
        raise SystemExit(f"invalid workload: {error}") from None


def _idle_cell(config: str, seed: int) -> ExperimentSpec:
    """idle/validate's cell: the fully idle server, 20 ms after 5 ms."""
    return ExperimentSpec(
        workload="idle", qps=0.0, preset="low", config=config, seed=seed,
        duration_ns=20 * MS, warmup_ns=5 * MS,
    )


def cmd_run(args: argparse.Namespace) -> int:
    (cell,) = _run_cells(args, [args.config])
    print(summarize(run_cell(cell)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    base, apc = (run_cell(cell) for cell in _run_cells(args, ["Cshallow", "CPC1A"]))
    point = savings_between(base, apc)
    print(summarize(apc))
    print(f"\npower savings vs Cshallow: {point.savings_percent:.1f}% "
          f"({point.saved_watts:.2f} W)")
    return 0


def cmd_idle(args: argparse.Namespace) -> int:
    rows = []
    for name in preset_names():
        result = run_cell(_idle_cell(name, args.seed))
        rows.append([
            name,
            result.package_residency and max(
                result.package_residency, key=result.package_residency.get
            ),
            f"{result.package_power_w:.2f} W",
            f"{result.dram_power_w:.2f} W",
            f"{result.total_power_w:.2f} W",
        ])
    print(format_table(["config", "package state", "SoC", "DRAM", "total"], rows))
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    model = Pc1aLatencyModel()
    rows = [
        [step, f"t+{offset} ns"] for step, offset in model.entry_breakdown().items()
    ]
    rows.extend([branch, f"{ns} ns"] for branch, ns in model.exit_breakdown().items())
    rows.append(["ENTRY total", f"{model.entry_ns} ns"])
    rows.append(["EXIT total (max of branches)", f"{model.exit_ns} ns"])
    rows.append(["worst-case transition", f"{model.worst_case_transition_ns} ns"])
    rows.append(["speedup vs PC6", f"{model.speedup_vs_pc6:.0f}x"])
    print(format_table(["step / branch", "time"], rows))
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    model = SkxAreaModel(interconnect_width_bits=args.width_bits)
    rows = [[name, f"{100 * value:.4f} %"] for name, value in model.breakdown().items()]
    rows.append(["TOTAL", f"{model.total_die_percent:.4f} %"])
    print(format_table(["component", "die area"], rows))
    return 0


EXPORT_COLUMNS = (
    "offered_qps",
    "config",
    "utilization",
    "all_idle_fraction",
    "pc1a_residency",
    "pc6_residency",
    "package_power_w",
    "dram_power_w",
    "total_power_w",
    "mean_latency_us",
    "p99_latency_us",
    "pc1a_exits",
    "requests_completed",
)


def _rate_points(args: argparse.Namespace) -> tuple[WorkloadPoint, ...]:
    """--rates -> workload points (rate 0 = the fully idle server)."""
    rates = _csv_list(
        args.rates if args.rates is not None else DEFAULT_RATES,
        "--rates", "rate", float,
    )
    return tuple(
        WorkloadPoint(
            "idle" if qps == 0 else args.workload, qps=qps, preset=args.preset
        )
        for qps in rates
    )


def _export_row(result: ExperimentResult, spec: ExperimentSpec) -> dict:
    """``export``'s row: preset workloads keep the CLI rate."""
    return {**flatten_result(result, spec=spec), "offered_qps": spec.qps}


def cmd_export(args: argparse.Namespace) -> int:
    """Sweep offered rates and dump the observables as CSV.

    The CSV carries everything needed to re-plot the paper's
    Memcached figures (6 and 7) with external tooling. The grid runs
    and reports exactly like ``sweep`` (:func:`_run_grid`): workers,
    store, journal, ``--stats-json``, Ctrl-C, the per-seed summary and
    the quarantine report (exit 1 when a cell exhausts its retries).

    Cells are passed to the session as an explicit list rather than a
    :class:`SweepSpec`: for preset-driven workloads every listed rate
    is the same physical experiment, which a spec rejects as a
    duplicate — here the session simulates it once and the CSV keeps
    the historical one-row-per-rate layout.
    """
    try:
        points = _rate_points(args)
        combos = _cross(_set_axes(args.set_props))
        cells = [
            ExperimentSpec(
                workload=point.workload,
                qps=point.qps,
                preset=point.preset,
                config=config,
                seed=args.seed,
                duration_ns=args.duration_ms * MS,
                warmup_ns=args.warmup_ms * MS,
                props=combo,
            )
            for config in _csv_list(args.configs, "--configs", "config")
            for combo in combos
            for point in points
        ]
    except (KeyError, ValueError, OSError) as error:
        # OSError: a replay preset naming a missing/unreadable trace.
        raise SystemExit(f"invalid export grid: {error}") from None
    return _run_grid(
        args, cells, "cells", _sweep_table,
        columns=EXPORT_COLUMNS, flatten=_export_row,
    )


def _scenario_points(args: argparse.Namespace) -> tuple[WorkloadPoint, ...]:
    """--scenario (+ optional --rates/--presets/--trace) -> points."""
    rates = presets = None
    if args.rates is not None:
        rates = _csv_list(args.rates, "--rates", "rate", float)
    if args.presets is not None:
        presets = _csv_list(args.presets, "--presets", "preset")
    points = scenario_registry.sweep_points(
        args.scenario, rates=rates, presets=presets, trace=args.trace
    )
    if args.duration_ms:
        # An explicit window beats the scenario's default: drop the
        # point-level override so the spec-level one applies.
        points = tuple(
            replace(point, duration_ns=None, warmup_ns=None)
            for point in points
        )
    return points


def _workload_points(args: argparse.Namespace) -> tuple[WorkloadPoint, ...]:
    """The workload-point axis of a sweep/fleet grid.

    ``--scenario`` uses the registry defaults (narrowed by
    ``--rates``/``--presets``/``--trace``); otherwise the workload
    name's kind decides which knob applies.
    """
    if args.scenario:
        return _scenario_points(args)
    kind = scenario_registry.get(args.workload).kind
    if kind == "preset":
        presets = _csv_list(
            args.presets if args.presets is not None else DEFAULT_PRESETS,
            "--presets", "preset",
        )
        return preset_points(args.workload, presets)
    if kind == "trace":
        # Trace scenarios have exactly one operating point: the
        # file (--trace; default = the scenario's bundled trace).
        return scenario_registry.sweep_points(args.workload, trace=args.trace)
    if kind == "fixed":
        return (WorkloadPoint(args.workload),)
    return _rate_points(args)


def _grid_axes(args: argparse.Namespace) -> dict[str, Any]:
    """sweep/fleet's workload, seed and window axes, as spec fields."""
    return {
        "workloads": _workload_points(args),
        "seeds": _csv_list(args.seeds, "--seeds", "seed", int),
        "duration_ns": args.duration_ms * MS if args.duration_ms else None,
        "warmup_ns": args.warmup_ms * MS if args.warmup_ms is not None else None,
    }


def _set_axes(
    set_args: list[str], fleet: bool = False
) -> list[tuple[str, list[Any]]]:
    """``--set`` occurrences -> ``(name, values)`` grid axes.

    Each occurrence is ``name=value`` or ``name=v1,v2,...`` (a grid
    axis). Values are parsed and validated against the registry here,
    so a typo'd name or out-of-range value dies with a pepc-style
    message before any cell is built.
    """
    axes: list[tuple[str, list[Any]]] = []
    seen: set[str] = set()
    for raw in set_args:
        name, sep, blob = raw.partition("=")
        name = name.strip()
        if not sep or not name or not blob.strip():
            raise SystemExit(
                f"--set expects NAME=VALUE[,VALUE...], got {raw!r}"
            )
        if name in seen:
            raise SystemExit(
                f"--set {name} given twice; grid one property with a "
                f"comma list instead (--set {name}=v1,v2)"
            )
        try:
            prop = get_prop(name)
            if prop.scope == "fleet" and not fleet:
                raise SystemExit(
                    f"--set {name} is fleet-scoped; it configures a "
                    "cluster — use it with 'repro fleet'"
                )
            values = [prop.parse(v.strip()) for v in blob.split(",") if v.strip()]
        except PropertyError as error:
            raise SystemExit(f"invalid --set: {error}") from None
        if not values:
            raise SystemExit(f"--set {name} lists no values")
        if len(set(map(repr, values))) != len(values):
            raise SystemExit(f"--set {name} lists duplicate values: {blob}")
        seen.add(name)
        axes.append((name, values))
    return axes


def _cross(
    axes: Sequence[tuple[str, Sequence[Any]]],
) -> tuple[dict[str, Any], ...]:
    """Grid axes -> the cross product of override dicts.

    The first axis is outermost, so ``--set timer_tick_hz=0,250 --set
    governor=shallow,menu`` yields four override sets in that order.
    """
    combos: list[dict[str, Any]] = [{}]
    for name, values in axes:
        combos = [{**combo, name: value} for combo in combos for value in values]
    return tuple(combos)


def _split_scopes(
    combo: dict[str, Any],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One override set -> (machine-scoped, fleet-scoped) halves."""
    machine = {k: v for k, v in combo.items() if get_prop(k).scope != "fleet"}
    fleet = {k: v for k, v in combo.items() if get_prop(k).scope == "fleet"}
    return machine, fleet


def cmd_props(args: argparse.Namespace) -> int:
    """Inspect the platform-property registry (list / info)."""
    if args.action == "list":
        rows = []
        for prop in all_props():
            rows.append([
                prop.name,
                prop.scope,
                prop.ptype.__name__,
                prop.allowed(),
                render_value(prop.default),
                prop.doc,
            ])
        print(format_table(
            ["property", "scope", "type", "allowed", "default", "description"],
            rows,
        ))
        print(f"\n{len(rows)} properties; sweep one with: "
              "repro sweep --set <property>=<v1,v2,...>")
        return 0
    # info <name>
    try:
        prop = get_prop(args.name)
    except PropertyError as error:
        raise SystemExit(str(error)) from None
    unit = f" {prop.unit}" if prop.unit else ""
    rows = [
        ["name", prop.name],
        ["scope", prop.scope],
        ["type", prop.ptype.__name__],
        ["allowed", prop.allowed() + unit],
        ["default", render_value(prop.default) + unit],
        ["description", prop.doc],
    ]
    if prop.scope != "fleet":
        for preset in preset_names():
            rows.append([
                f"value in {preset}",
                render_value(preset_props(preset)[prop.name]) + unit,
            ])
    print(format_table(["field", "value"], rows))
    return 0


def _write_stats_json(
    args: argparse.Namespace, results, total: int, workers: int, rows: int,
    run_stats: dict,
) -> None:
    """Persist machine-readable run accounting for CI assertions."""
    unique = len({cell.key() for cell in results.cells})
    quarantined = len(results.quarantined)
    stats_path = Path(args.stats_json)
    stats_path.parent.mkdir(parents=True, exist_ok=True)
    stats_path.write_text(json.dumps({
        "cells": total,
        "unique_cells": unique + quarantined,
        "cache_hits": results.cache_hits,
        "cache_misses": unique + quarantined - results.cache_hits,
        "workers": workers,
        "rows": rows,
        "csv": str(args.out),
        # Fault-tolerance counters (see docs/robustness.md).
        "simulated": run_stats.get("simulated", 0),
        "retries": run_stats.get("retries", 0),
        "requeues": run_stats.get("requeues", 0),
        "deadline_kills": run_stats.get("deadline_kills", 0),
        "worker_deaths": run_stats.get("worker_deaths", 0),
        "respawns": run_stats.get("respawns", 0),
        "quarantined": quarantined,
        "journal_skipped": run_stats.get("journal_skipped", 0),
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote run stats to {stats_path}")


def _run_grid(
    args: argparse.Namespace, cells: list, what: str,
    table: Callable[[SweepResults], str], **csv_options,
) -> int:
    """Run an ``export``, ``sweep`` or ``fleet`` grid and report it.

    Rows stream into ``args.out`` as cells complete (in deterministic
    cell order, so the CSV is byte-identical to a buffered write)
    instead of holding the whole grid's results before the first row
    lands; ``csv_options`` pick the writer's columns and flattener.
    With ``--store`` a journal records completed cells, and Ctrl-C
    leaves a durable partial CSV (exit 130). Then the run summary,
    ``--stats-json``, the quarantine report and ``table(results)``;
    returns the exit code.
    """
    workers = _resolve_workers(args.workers)
    store = ResultStore(args.store) if args.store else None
    journal = _open_journal(args, store)
    try:
        with SweepSession(workers=workers, policy=_cell_policy(args)) as session, \
                StreamingCsvWriter(args.out, **csv_options) as writer:
            try:
                results = session.run(
                    cells,
                    store=store,
                    progress=_progress_for(args, len(cells)),
                    on_result=lambda cell, result, cached: writer.write(
                        result, spec=cell),
                    journal=journal,
                )
            except KeyboardInterrupt:
                return _interrupt_summary(args, writer, journal, len(cells), store)
            count = writer.rows
    finally:
        if journal is not None:
            journal.close()
    print(
        f"swept {len(cells)} {what} on {workers} worker(s); "
        f"{results.cache_hits} cache hit(s)"
    )
    print(f"wrote {count} rows to {args.out}")
    if args.stats_json:
        _write_stats_json(args, results, len(cells), workers, count,
                          session.last_run_stats)
    exit_code = _handle_quarantined(args, results)
    print(table(results))
    return exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a full scenario x config x rate x seed grid in parallel.

    Writes every cell as a CSV row (seed column included) and prints a
    per-seed mean/CI summary per grid cell. With ``--store``, cells
    are cached under content-hash keys: re-running an unchanged grid
    simulates nothing. ``--stats-json`` persists the run accounting
    (cells, cache hits/misses, rows) for machine consumption.
    """
    try:
        spec = SweepSpec(
            **_grid_axes(args),
            props=_cross(_set_axes(args.set_props)),
            configs=_csv_list(args.configs, "--configs", "config"),
        )
    except (KeyError, ValueError, OSError) as error:
        # OSError: a trace scenario naming a missing/unreadable file.
        raise SystemExit(f"invalid sweep grid: {error}") from None
    return _run_grid(args, spec.cells(), "cells", _sweep_table)


def _sweep_table(results: SweepResults) -> str:
    """``sweep``'s summary: one per-seed mean/CI row per grid cell."""
    rows = [
        [
            agg.config,
            agg.workload_label,
            f"{agg.offered_qps:g}",
            f"{agg.n_seeds}",
            str(agg["total_power_w"]),
            str(agg["mean_latency_us"]),
            str(agg["pc1a_residency"]),
        ]
        for agg in results.aggregate()
    ]
    return format_table(
        ["config", "workload", "qps", "seeds",
         "power (W)", "mean lat (us)", "PC1A res"],
        rows,
    )


def cmd_fleet(args: argparse.Namespace) -> int:
    """Sweep a multi-server cluster grid: routing x config x rate x seed.

    Each cell simulates a whole fleet — N servers under one kernel
    behind a load balancer — fed by a single scenario-driven arrival
    stream. The grid runs through the same sweep session as ``sweep``
    (parallel workers, content-hash store caching, deterministic CSV),
    so comparing routing policies at matched offered load is one
    command::

        python -m repro fleet --scenario memcached --rates 32000 \\
            --servers 4 --routing round-robin,power-aware-pack \\
            --configs CPC1A --workers 4 --out results/fleet.csv
    """
    from repro.fleet import (
        FLEET_CSV_COLUMNS,
        ClusterConfig,
        FleetSpec,
        flatten_fleet_result,
    )
    from repro.units import US

    try:
        axes = _grid_axes(args)
        # The cluster flags are the leading grid axes, in this order;
        # a --set of the same property replaces its flag's axis. Each
        # name is "fleet." + the ClusterConfig field it sets.
        flag_axes = [
            ("fleet.n_servers", [args.servers]),
            ("fleet.routing", _csv_list(args.routing, "--routing", "policy")),
            ("fleet.control", _csv_list(args.control, "--control", "policy")),
            ("fleet.dispatch_latency_ns", [int(args.dispatch_latency_us * US)]),
            ("fleet.pack_watermark", [args.pack_watermark]),
        ]
        set_axes = _set_axes(args.set_props, fleet=True)
        named = {name for name, _ in set_axes}
        combos = _cross(
            [axis for axis in flag_axes if axis[0] not in named] + set_axes
        )
        clusters = []
        for config in _csv_list(args.configs, "--configs", "config"):
            for combo in combos:
                machine_over, fleet_over = _split_scopes(combo)
                shape = {
                    name.removeprefix("fleet."): fleet_over.pop(name)
                    for name, _ in flag_axes
                }
                # What the five cluster fields leave are the controller
                # knobs.
                clusters.append(ClusterConfig(
                    machine=config, props=machine_over,
                    control_props=tuple(sorted(fleet_over.items())), **shape,
                ))
        spec = FleetSpec(**axes, clusters=tuple(clusters))
    except (KeyError, ValueError, OSError) as error:
        raise SystemExit(f"invalid fleet grid: {error}") from None
    return _run_grid(
        args, spec.cells(), "fleet cells", _fleet_table,
        columns=FLEET_CSV_COLUMNS, flatten=flatten_fleet_result,
    )


def _fleet_table(results: SweepResults) -> str:
    """``fleet``'s summary: one row per fleet cell."""
    rows = [
        [
            result.config_name,
            f"x{result.n_servers}",
            result.routing,
            result.workload_name,
            f"{result.offered_qps:g}",
            f"{result.seed}",
            f"{result.total_power_w:.1f} W",
            f"{result.latency.p99_us:.0f} us",
            f"{result.pc1a_residency():.1%}",
            f"{result.active_servers()}/{result.n_servers}",
        ]
        for result in results
    ]
    return format_table(
        ["config", "servers", "routing", "workload", "qps", "seed",
         "fleet power", "p99", "PC1A res", "active"],
        rows,
    )


def cmd_control(args: argparse.Namespace) -> int:
    """Inspect the fleet-autoscaling controller registry."""
    from repro.control import CONTROLLER_DEFS
    from repro.props.builtin import CONTROL_PROP_NAMES

    print(format_table(
        ["policy", "description"],
        [[d.name, d.doc] for d in CONTROLLER_DEFS],
    ))
    rows = []
    for name in CONTROL_PROP_NAMES:
        prop = get_prop(name)
        unit = f" {prop.unit}" if prop.unit else ""
        rows.append([
            prop.name,
            prop.allowed() + unit,
            render_value(prop.default),
            prop.doc,
        ])
    print()
    print(format_table(
        ["controller knob", "allowed", "default", "description"], rows
    ))
    print(
        f"\n{len(CONTROLLER_DEFS)} policies; sweep with: repro fleet "
        "--control <p1,p2,...> [--set fleet.slo_p99_ns=...]. "
        "See docs/control.md."
    )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Maintain a result store: checksum-verify records, collect garbage.

    ``verify`` re-reads every record, checks its checksum and decodes
    it; corrupt records are moved into ``<store>/quarantine/`` (unless
    ``--no-quarantine``) so the next sweep re-simulates those cells.
    ``gc`` deletes quarantined records and orphaned temp files.
    """
    root = Path(args.root)
    if not root.is_dir():
        raise SystemExit(f"not a store directory: {root}")
    store = ResultStore(root)
    if args.store_cmd == "verify":
        report = store.verify(quarantine=not args.no_quarantine)
        print(
            f"checked {report['checked']} record(s): {report['ok']} ok "
            f"({report['legacy']} legacy, no checksum), "
            f"{len(report['corrupt'])} corrupt"
        )
        for entry in report["corrupt"]:
            action = "reported" if args.no_quarantine else "quarantined"
            print(f"  {action}: {entry['file']}: {entry['error']}")
        return 1 if report["corrupt"] else 0
    removed = store.gc()
    print(
        f"removed {removed['quarantine_removed']} quarantined record(s) "
        f"and {removed['tmp_removed']} orphaned temp file(s)"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the registered scenarios (name, kind, defaults)."""
    rows = []
    for scenario in scenario_registry.all_scenarios():
        if scenario.uses_rate:
            grid = ",".join(f"{rate:g}" for rate in scenario.default_rates)
        elif scenario.kind == "preset":
            grid = ",".join(scenario.default_presets)
        elif scenario.kind == "trace":
            grid = "<trace file>"
        else:
            grid = "-"
        rows.append([scenario.name, scenario.kind, grid, scenario.description])
    print(format_table(["scenario", "kind", "default grid", "description"], rows))
    print(f"\n{len(rows)} scenario(s); sweep one with: "
          "repro sweep --scenario <name>")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    comparisons = []
    for name, paper in (("Cshallow", 49.5), ("Cdeep", 12.5), ("CPC1A", 29.1)):
        result = run_cell(_idle_cell(name, seed=1))
        comparisons.append(PaperComparison(
            f"idle power {name}", paper, result.total_power_w,
            unit=" W", rel_tolerance=0.05,
        ))
    latency = Pc1aLatencyModel()
    comparisons.append(PaperComparison(
        "PC1A worst-case transition", 200, latency.worst_case_transition_ns,
        unit=" ns", rel_tolerance=0.15,
    ))
    comparisons.append(PaperComparison(
        "APC area overhead", 0.75, SkxAreaModel().total_die_percent,
        unit=" %", rel_tolerance=0.15,
    ))
    print(comparison_table(comparisons))
    failed = [c for c in comparisons if c.verdict == "OFF"]
    return 1 if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Static determinism/checkpoint-safety analysis (rules RPR001..)."""
    from repro.lint import get_rule, lint_paths, rule_catalog

    if args.list_rules:
        rows = [
            [rule.code, rule.name, ",".join(sorted(rule.domains)), rule.summary]
            for rule in rule_catalog()
        ]
        print(format_table(["code", "name", "domains", "summary"], rows))
        return 0
    if args.explain:
        try:
            rule = get_rule(args.explain)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        print(f"{rule.code} {rule.name} — {rule.summary}\n")
        print(rule.doc or "(no extended documentation)")
        return 0
    if not args.paths:
        print("repro lint: no paths given (try: repro lint src/ tests/)",
              file=sys.stderr)
        return 2
    try:
        report = lint_paths(args.paths, select=args.select)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    rendered = (
        report.to_json()
        if args.format == "json"
        else report.format_human(verbose_suppressed=args.verbose)
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.format} report to {args.out}")
    if args.format != "json" or not args.out:
        print(rendered)
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AgilePkgC (APC) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one experiment")
    _add_run_args(run_parser)
    run_parser.add_argument(
        "--config", default="CPC1A", choices=sorted(preset_names())
    )
    run_parser.set_defaults(fn=cmd_run)

    compare_parser = sub.add_parser("compare", help="Cshallow vs CPC1A")
    _add_run_args(compare_parser)
    compare_parser.set_defaults(fn=cmd_compare)

    idle_parser = sub.add_parser("idle", help="idle power per config")
    idle_parser.add_argument("--seed", type=int, default=1)
    idle_parser.set_defaults(fn=cmd_idle)

    latency_parser = sub.add_parser("latency", help="PC1A latency model")
    latency_parser.set_defaults(fn=cmd_latency)

    area_parser = sub.add_parser("area", help="APC area overhead")
    area_parser.add_argument("--width-bits", type=int, default=128)
    area_parser.set_defaults(fn=cmd_area)

    export_parser = sub.add_parser(
        "export", help="config x rate grid to the Figs. 6/7 CSV"
    )
    _add_run_args(export_parser, qps=False)
    _add_grid_args(
        export_parser, configs="Cshallow,CPC1A", out="results/sweep.csv",
        workers=1,
    )
    export_parser.set_defaults(fn=cmd_export)

    sweep_parser = sub.add_parser(
        "sweep", help="parallel scenario x config x rate x seed grid"
    )
    _add_axis_args(sweep_parser)
    _add_grid_args(
        sweep_parser, configs="Cshallow,CPC1A", out="results/sweep_grid.csv",
        workers=0,
    )
    sweep_parser.set_defaults(fn=cmd_sweep)

    fleet_parser = sub.add_parser(
        "fleet", help="multi-server cluster sweep (routing x config x rate)"
    )
    _add_axis_args(fleet_parser)
    fleet_parser.add_argument(
        "--servers", type=int, default=2,
        help="servers per cluster (default 2)",
    )
    fleet_parser.add_argument(
        "--routing", default="round-robin,power-aware-pack",
        help="comma-separated routing policies "
             "(round-robin, least-outstanding, power-aware-pack, "
             "power-aware-spread)",
    )
    fleet_parser.add_argument(
        "--control", default="static",
        help="comma-separated autoscaling controllers "
             "(static, slo-pack, sleepscale); knobs via --set "
             "fleet.slo_p99_ns=... etc. — see 'repro control list'",
    )
    fleet_parser.add_argument(
        "--dispatch-latency-us", type=float, default=2.0,
        help="load-balancer hop added to every routed request (us)",
    )
    fleet_parser.add_argument(
        "--pack-watermark", type=int, default=0,
        help="concurrent requests a server absorbs before "
             "power-aware-pack spills (0 = one per core)",
    )
    _add_grid_args(
        fleet_parser, configs="CPC1A", out="results/fleet_grid.csv",
        workers=0, fleet=True,
    )
    fleet_parser.set_defaults(fn=cmd_fleet)

    props_parser = sub.add_parser(
        "props",
        help="inspect the platform-property registry",
        description="Typed, scoped platform properties (pepc-style): "
                    "every policy knob of the modelled machine/fleet, "
                    "sweepable with --set NAME=VALUE[,VALUE...] on "
                    "sweep/export/fleet. See docs/properties.md.",
    )
    props_sub = props_parser.add_subparsers(dest="action", required=True)
    props_list = props_sub.add_parser(
        "list", help="table of every registered property"
    )
    props_list.set_defaults(fn=cmd_props)
    props_info = props_sub.add_parser(
        "info", help="one property in detail (incl. per-preset values)"
    )
    props_info.add_argument("name", help="property name (e.g. timer_tick_hz)")
    props_info.set_defaults(fn=cmd_props)

    control_parser = sub.add_parser(
        "control",
        help="inspect the fleet-autoscaling controller registry",
        description="SLO-constrained autoscaling controllers for "
                    "'repro fleet --control': park/unpark servers and "
                    "scale P-states against a latency SLO. "
                    "See docs/control.md.",
    )
    control_parser.add_argument(
        "action", nargs="?", default="list", choices=["list"],
        help="what to do (only 'list' for now)",
    )
    control_parser.set_defaults(fn=cmd_control)

    store_parser = sub.add_parser(
        "store",
        help="result-store maintenance (verify / gc)",
        description="Audit and clean a sweep result store: 'verify' "
                    "checksum-checks every record (quarantining corrupt "
                    "ones), 'gc' deletes quarantined records and orphaned "
                    "temp files. See docs/robustness.md.",
    )
    store_sub = store_parser.add_subparsers(dest="store_cmd", required=True)
    store_verify = store_sub.add_parser(
        "verify", help="checksum-verify every record in a store"
    )
    store_verify.add_argument("root", help="store directory")
    store_verify.add_argument(
        "--no-quarantine", action="store_true",
        help="report corrupt records without moving them aside",
    )
    store_verify.set_defaults(fn=cmd_store)
    store_gc = store_sub.add_parser(
        "gc", help="delete quarantined records and orphaned temp files"
    )
    store_gc.add_argument("root", help="store directory")
    store_gc.set_defaults(fn=cmd_store)

    scenarios_parser = sub.add_parser(
        "scenarios", help="list the registered traffic scenarios"
    )
    scenarios_parser.add_argument(
        "action", nargs="?", default="list", choices=["list"],
        help="what to do (only 'list' for now)",
    )
    scenarios_parser.set_defaults(fn=cmd_scenarios)

    validate_parser = sub.add_parser(
        "validate", help="check the headline paper anchors"
    )
    validate_parser.set_defaults(fn=cmd_validate)

    lint_parser = sub.add_parser(
        "lint",
        help="static determinism/checkpoint-safety analysis",
        description="AST-based lint pass over simulation sources: "
                    "wall-clock/unseeded randomness, float event times, "
                    "unordered iteration into scheduling, checkpoint-unsafe "
                    "state, shared-meter prefixes. Suppress a finding with "
                    "'# repro-lint: ignore[RPR001]'.",
    )
    lint_parser.add_argument("paths", nargs="*", help="files or directories to lint")
    lint_parser.add_argument("--format", choices=("human", "json"), default="human")
    lint_parser.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        type=lambda blob: blob.split(","),
        help="comma-separated rule codes (default: all)",
    )
    lint_parser.add_argument(
        "--verbose", action="store_true", help="also show suppressed findings"
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    lint_parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print one rule's full documentation",
    )
    lint_parser.set_defaults(fn=cmd_lint)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # Commands with partial output to salvage (sweep) catch the
        # interrupt themselves; everything else still exits 130
        # cleanly instead of dying mid-print with a traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

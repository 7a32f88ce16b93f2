"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper: it runs the
relevant experiments, renders a paper-vs-measured report, prints it
(visible with ``pytest -s``) and saves it as ``results/<name>.txt``,
the paper-vs-measured record of that table or figure.

Sweep-shaped benches (Figs. 7-9) go through :func:`run_bench_sweep`,
which fans cells out over one shared
:class:`~repro.sweep.SweepSession` (``REPRO_SWEEP_WORKERS`` controls
the pool; default = core count). The session persists across bench
invocations, so the worker pool spins up once per pytest session and
the workers' recycled machines stay warm from figure to figure; its
in-process result cache additionally makes a cell measured for
Fig. 7(b) a cache hit when Fig. 7(c) needs it again.
"""

from __future__ import annotations

import atexit
import json
from pathlib import Path

from repro.server.configs import MachineConfig
from repro.server.experiment import ExperimentResult, run_experiment
from repro.sweep import (
    MemoryStore,
    SweepResults,
    SweepSession,
    SweepSpec,
    duration_for_rate,
    warmup_for_duration,
)
from repro.workloads.base import Workload

__all__ = [
    "RESULTS_DIR",
    "append_trajectory",
    "bench_session",
    "check_rate_regression",
    "duration_for_rate",
    "last_comparable_run",
    "load_trajectory",
    "measure",
    "run_bench_sweep",
    "save_report",
]

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: One result cache per pytest session: benches sweeping overlapping
#: grids (fig7b/fig7c) measure each cell once.
_SESSION_STORE = MemoryStore()

#: The shared executor, created on first use (so merely importing a
#: bench module never forks a pool) and closed at interpreter exit.
_SESSION: SweepSession | None = None


def bench_session() -> SweepSession:
    """The persistent sweep session shared by every bench."""
    global _SESSION
    if _SESSION is None:
        _SESSION = SweepSession(store=_SESSION_STORE)
        atexit.register(_SESSION.close)
    return _SESSION


def save_report(name: str, text: str) -> Path:
    """Print a report and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n[saved to {path}]")
    return path


def measure(
    workload: Workload,
    config: MachineConfig,
    seed: int = 1,
    duration_ns: int | None = None,
) -> ExperimentResult:
    """Run one experiment with rate-appropriate windows."""
    if duration_ns is None:
        duration_ns = duration_for_rate(workload.offered_qps)
    return run_experiment(
        workload,
        config,
        duration_ns=duration_ns,
        warmup_ns=warmup_for_duration(duration_ns),
        seed=seed,
    )


def run_bench_sweep(spec: SweepSpec) -> SweepResults:
    """Run a bench's sweep grid through the shared persistent session."""
    return bench_session().run(spec)


# -- throughput trajectories + regression gates ------------------------------
# Shared by bench_kernel_throughput.py (events/sec) and
# bench_sweep_throughput.py (cells/sec): one implementation of the
# trajectory file format and the CI gate policy, so the two gates can
# never silently diverge.

def load_trajectory(path) -> dict:
    """Read a ``BENCH_*.json`` trajectory (``{"schema", "runs": [...]}``)."""
    with open(path) as handle:
        data = json.load(handle)
    if "runs" not in data or not isinstance(data["runs"], list):
        raise ValueError(f"{path} is not a benchmark trajectory")
    return data


def last_comparable_run(trajectory: dict, schema: int) -> dict | None:
    """The trajectory's newest run recorded under ``schema``.

    Runs recorded under a different schema measured different scenario
    definitions; comparing rates across them would make the regression
    gate meaningless.
    """
    for run in reversed(trajectory["runs"]):
        if run.get("schema") == schema:
            return run
    return None


def check_rate_regression(
    run: dict,
    baseline_run: dict,
    max_regression: float,
    scenarios,
    rate_key: str,
    unit: str,
) -> list[str]:
    """Failure lines for scenarios whose rate fell more than the budget."""
    failures = []
    for name in scenarios:
        base = baseline_run["scenarios"].get(name)
        fresh = run["scenarios"].get(name)
        if base is None or fresh is None:
            continue
        floor = base[rate_key] * (1.0 - max_regression)
        if fresh[rate_key] < floor:
            failures.append(
                f"{name}: {fresh[rate_key]:,.0f} {unit} < floor "
                f"{floor:,.0f} (baseline {base[rate_key]:,.0f}, "
                f"budget -{max_regression:.0%})"
            )
    return failures


def append_trajectory(out, run: dict, schema: int, replace: bool = False) -> Path:
    """Append ``run`` to the trajectory at ``out`` (or start a fresh one).

    Appending is the default: trajectories exist to accumulate
    cross-PR history, so re-running the documented command must not
    silently erase it.
    """
    trajectory = {"schema": schema, "runs": []}
    if not replace:
        try:
            trajectory = load_trajectory(out)
        except (OSError, ValueError):
            pass
    trajectory["schema"] = schema  # newest run's definitions
    trajectory["runs"].append(run)
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trajectory, indent=1, sort_keys=True) + "\n")
    return out

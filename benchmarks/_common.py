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
    "bench_session",
    "duration_for_rate",
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

"""A/B the working tree against a commit with the repo benchmark.

::

    python3 benchmarks/ab.py REF [--pairs 10] [--seconds 30] [--seed 900] [--count]

``git archive REF`` goes into a temporary directory, and this checkout's
``perfbench/`` and ``BENCHMARK.json`` are copied over it, so both sides
run identical benchmark code and differ only in ``src/``. The change
side is the working tree as it stands. For each workload in
``BENCHMARK.json``, pair i runs its ``command`` with ``--workload W
--seed SEED+i --seconds T --trace 0`` once per side, each side from its
own tree root: the parent first in even pairs, the change first in odd
ones. Both trees' ``src/`` are byte-compiled before the first pair
(:func:`compile_sources`). Each end-to-end metric of each workload gets
one verdict from :func:`judge`, by the metric's ``better`` and
``bound``. With ``--count``, this checkout's ``benchmarks/opcount.py``
then counts one seed-0 pass of every workload in each tree, and
:func:`report_work` prints the opcodes, Python calls and C calls,
parent → change: an exact work diff that the timing noise of a shared
host does not blur. The counts depend on the Python version, so they
inform and never change the exit code.

Exit code 1 on a ``regression``, on a change run that is not correct,
or when the change fails a larger share of operations than the parent;
2 when REF cannot be archived or a parent run fails; 0 otherwise. The
temporary tree is removed on every exit path, Ctrl-C and SIGTERM
included. Stdlib
only: the harness runs perfbench and imports nothing of the simulator.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Judgement(NamedTuple):
    """One end-to-end metric on one workload, parent against change."""

    verdict: str
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    wins: int
    losses: int


def judge(metric: dict, parent: list[float], change: list[float]) -> Judgement:
    """The verdict on ``metric`` from paired runs (``parent[i]``, ``change[i]``).

    A resolved verdict needs the change to win (``gain``) or lose
    (``regression``) at least nine pairs in ten, ties counting for
    neither, and the medians to differ by more than the parent's
    interquartile range; a regression must also exceed the metric's
    relative ``bound``. Otherwise the verdict is ``unresolved`` when
    the parent's own spread is wider than the bound, else ``within
    bound``.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    deltas = [sign * (c - p) for p, c in zip(parent, change, strict=True)]
    wins = sum(delta > 0 for delta in deltas)
    losses = sum(delta < 0 for delta in deltas)
    resolved = (9 * len(deltas) + 9) // 10  # ceil(0.9 * pairs)
    median = statistics.median(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    change_median = statistics.median(change)
    better_by = sign * (change_median - median)
    bound = metric["bound"] * median
    if losses >= resolved and -better_by > max(q3 - q1, bound):
        verdict = "regression"
    elif wins >= resolved and better_by > q3 - q1:
        verdict = "gain"
    elif q3 - q1 > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return Judgement(verdict, median, q1, q3, change_median, wins, losses)


def run_perfbench(
    command: list[str], root: Path, workload: str, seed: int, seconds: float
) -> dict | None:
    """One benchmark run from ``root``: its final JSON line, or None."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None


def report(workload: str, metrics: list[dict], runs: dict[str, list[dict]]) -> int:
    """Print one workload's verdicts; 1 on a regression or more failures."""
    status = 0
    print(f"\n{workload}:")
    print(f"  {'metric':<24} {'unit':<5} {'parent median [q1, q3]':>32} "
          f"{'change':>10} {'won/lost':>9}  verdict")
    for metric in metrics:
        name = metric["name"]
        j = judge(
            metric,
            [run["metrics"][name]["value"] for run in runs["parent"]],
            [run["metrics"][name]["value"] for run in runs["change"]],
        )
        spread = f"{j.parent_median:.4g} [{j.parent_q1:.4g}, {j.parent_q3:.4g}]"
        print(f"  {name:<24} {metric['unit']:<5} {spread:>32} "
              f"{j.change_median:>10.4g} {f'{j.wins}/{j.losses}':>9}  {j.verdict}")
        if j.verdict == "regression":
            status = 1
    (parent_failed, parent_ops), (change_failed, change_ops) = (
        (sum(run["failed"] for run in runs[side]),
         sum(run["attempted"] for run in runs[side]))
        for side in ("parent", "change")
    )
    print(f"  failed operations: parent {parent_failed}/{parent_ops}, "
          f"change {change_failed}/{change_ops}")
    if change_failed * parent_ops > parent_failed * change_ops:
        status = 1  # a larger failed/attempted share
    return status


#: opcount.py's JSON keys and their labels, in the order printed.
WORK_COUNTS = (("opcodes", "opcodes"), ("py_calls", "Python calls"),
               ("c_calls", "C calls"))


def run_opcount(root: Path, workload: str) -> dict | None:
    """``benchmarks/opcount.py`` on one workload from ``root``: its JSON line."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/opcount.py", "--workload", workload],
        cwd=root, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None


def report_work(
    workloads: list[str], roots: dict[str, Path], count=run_opcount
) -> None:
    """Print the work of one seed-0 pass per workload, parent → change.

    ``count(root, workload)`` returns opcount.py's JSON line, or None
    when the count failed; a failed count is reported and skipped. Both
    trees are counted by this interpreter.
    """
    print(f"\nwork of one seed-0 pass (benchmarks/opcount.py, Python "
          f"{platform.python_version()}), parent → change:")
    print(f"  {'workload':<18} {'count':<13} {'parent':>14} {'change':>14} "
          f"{'change %':>9}")
    for workload in workloads:
        parent, change = (count(roots[side], workload) for side in ("parent", "change"))
        if parent is None or change is None:
            print(f"  {workload:<18} count failed")
            continue
        for key, label in WORK_COUNTS:
            before, after = parent[key], change[key]
            delta = f"{100 * (after - before) / before:+.2f}" if before else "n/a"
            print(f"  {workload:<18} {label:<13} {before:>14,} {after:>14,} "
                  f"{delta:>9}")


def compile_sources(root: Path) -> None:
    """Byte-compile ``root/src``, so that no run compiles ``repro`` on import.

    ``compileall`` writes ``.pyc`` files even under
    ``PYTHONDONTWRITEBYTECODE=1``. Without it, on a host that sets that
    variable, a fresh archive compiles on every import while a tree
    with a ``__pycache__`` left by earlier runs does not, which biases
    ``setup_s``.
    """
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True
    )


def compare(benchmark: dict, parent_root: Path, args: argparse.Namespace) -> int:
    """Run the interleaved pairs of every workload and judge them."""
    roots = {"parent": parent_root, "change": ROOT}
    status = 0
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_perfbench(
                    benchmark["command"], roots[side], workload, seed, args.seconds
                )
                if result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: the {side} run failed")
                    return 2 if side == "parent" else 1
                runs[side].append(result)
            print(f"{workload}: pair {pair + 1}/{args.pairs} (seed {seed}) done",
                  flush=True)
        status = max(status, report(workload, benchmark["end_to_end"], runs))
    return status


def main(argv: list[str] | None = None) -> int:
    # A terminated run (a CI cancel, ``timeout``) unwinds like Ctrl-C: the
    # running benchmark is killed and the temporary tree removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10,
                        help="interleaved parent/change pairs per workload")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="seconds per benchmark run")
    parser.add_argument("--seed", type=int, default=900,
                        help="workload seed of the first pair")
    parser.add_argument("--count", action="store_true",
                        help="then print each tree's opcodes and calls per "
                             "workload (opcount.py; never changes the exit code)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (the parent needs quartiles)")
    with tempfile.TemporaryDirectory(prefix="ab-", ignore_cleanup_errors=True) as tmp:
        parent_root = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.ref],
            capture_output=True,
        )
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        shutil.rmtree(parent_root / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", parent_root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", parent_root / "BENCHMARK.json")
        if args.count:
            (parent_root / "benchmarks").mkdir(exist_ok=True)
            shutil.copy2(ROOT / "benchmarks" / "opcount.py",
                         parent_root / "benchmarks" / "opcount.py")
        for root in (parent_root, ROOT):
            compile_sources(root)
        print(f"A/B: {args.ref} (parent) against the working tree, "
              f"{args.pairs} pairs of {args.seconds:g} s from seed {args.seed}",
              flush=True)
        status = compare(benchmark, parent_root, args)
        if args.count:
            report_work([entry["name"] for entry in benchmark["workloads"]],
                        {"parent": parent_root, "change": ROOT})
        return status


if __name__ == "__main__":
    raise SystemExit(main())

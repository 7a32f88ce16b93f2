"""Count the Python work of one seed-0 pass of a perfbench grid.

::

    python3 benchmarks/opcount.py --workload server_apc [--scale full|tiny]

Runs every cell of perfbench's seed-0 grid for the workload in this
process, one ``repro.api.run_cell`` each, and counts what the
interpreter executed: bytecode instructions and Python calls with
``sys.settrace``, calls into C functions with ``sys.setprofile``. The
workload's warm-up cells run first, untraced, so lazy imports and
per-process caches are settled before the count starts. Prints one JSON
line.

A timing on a shared host spreads by several percent from run to run;
these counts repeat exactly on one interpreter, so two trees compare on
one host without noise. The simulator counted is the one in this
checkout's ``src/``: to count a parent commit, extract it with ``git
archive``, copy this file into its ``benchmarks/`` and run it there.
The counts depend on the Python version (its bytecode), so they are a
diagnostic, not a CI gate. Tracing makes a pass 10 to 15 times slower:
``server_apc`` at full scale takes 20 to 30 s. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def count_pass(cells: list, run_cell) -> dict[str, int]:
    """Opcodes, Python calls and C calls of running ``cells`` in order."""
    opcodes = py_calls = c_calls = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def on_call(frame, event, arg):
        nonlocal py_calls
        py_calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def on_profile(frame, event, arg):
        nonlocal c_calls
        if event == "c_call":
            c_calls += 1

    sys.setprofile(on_profile)
    sys.settrace(on_call)
    try:
        for cell in cells:
            run_cell(cell)
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return {"opcodes": opcodes, "py_calls": py_calls, "c_calls": c_calls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("server_apc", "fleet_diurnal", "sweep_short_cells"))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS
    from repro.api import run_cell

    workload = WORKLOADS[args.workload]
    for cell in workload.warm_cells(args.scale):
        run_cell(cell)
    cells = workload.grid(0, args.scale)
    start = perf_counter()
    counts = count_pass(cells, run_cell)
    print(json.dumps({
        "workload": args.workload,
        "scale": args.scale,
        "cells": len(cells),
        **counts,
        "python": platform.python_version(),
        "traced_s": round(perf_counter() - start, 1),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

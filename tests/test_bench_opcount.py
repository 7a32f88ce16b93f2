"""The work counter (``benchmarks/opcount.py``) repeats exactly."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "opcount.py"


def test_two_runs_on_the_tiny_server_grid_count_alike():
    command = [sys.executable, str(SCRIPT), "--workload", "server_apc",
               "--scale", "tiny"]
    # Two interpreters at once, each with its own hash seed.
    runs = [
        subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONHASHSEED": str(seed)})
        for seed in (1, 2)
    ]
    first, second = (json.loads(run.communicate()[0]) for run in runs)
    assert all(run.returncode == 0 for run in runs)
    assert first["cells"] == 6
    assert first["opcodes"] > first["py_calls"] > 0 and first["c_calls"] > 0
    counts = ("opcodes", "py_calls", "c_calls")
    assert [first[key] for key in counts] == [second[key] for key in counts]

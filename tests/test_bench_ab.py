"""The A/B harness (``benchmarks/ab.py``): its verdict rule, on synthetic
pairs, its byte-compile step and its work table."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_ab", ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = {
    metric["name"]: metric
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}

#: A tight parent: ten runs within ±1 % of 100.
PARENT = [99.0, 100.5, 99.5, 101.0, 100.0, 99.2, 100.8, 100.2, 99.8, 100.0]


def scaled(values, factor):
    return [value * factor for value in values]


class TestRegression:
    def test_resolved_slowdown_on_a_lower_is_better_metric(self):
        judged = ab.judge(METRICS["cell_wall_ms_p50"], PARENT, scaled(PARENT, 1.4))
        assert judged.verdict == "regression"
        assert (judged.wins, judged.losses) == (0, 10)

    def test_resolved_slowdown_on_a_higher_is_better_metric(self):
        judged = ab.judge(METRICS["cells_per_s"], PARENT, scaled(PARENT, 0.6))
        assert judged.verdict == "regression"
        assert (judged.wins, judged.losses) == (0, 10)

    def test_nine_of_ten_pairs_lost_is_enough(self):
        change = scaled(PARENT, 1.4)
        change[3] = PARENT[3] * 0.99
        judged = ab.judge(METRICS["cell_wall_ms_p50"], PARENT, change)
        assert (judged.wins, judged.losses) == (1, 9)
        assert judged.verdict == "regression"

    def test_eight_of_ten_pairs_lost_is_not(self):
        change = scaled(PARENT, 1.4)
        change[3] = PARENT[3] * 0.99
        change[7] = PARENT[7]  # a tie counts for neither side
        judged = ab.judge(METRICS["cell_wall_ms_p50"], PARENT, change)
        assert (judged.wins, judged.losses) == (1, 8)
        assert judged.verdict != "regression"

    def test_a_parent_spread_wider_than_the_gap_leaves_it_unresolved(self):
        parent = [40.0, 60.0, 80.0, 100.0, 120.0, 100.0, 140.0, 70.0, 130.0, 90.0]
        change = scaled(parent, 1.3)  # every pair lost, medians 30 % apart
        judged = ab.judge(METRICS["cell_wall_ms_p50"], parent, change)
        assert judged.losses == 10
        assert judged.parent_q3 - judged.parent_q1 > 0.3 * judged.parent_median
        assert judged.verdict == "unresolved"

    def test_peak_rss_is_judged_against_its_own_bound(self):
        change = scaled(PARENT, 1.15)  # beyond 0.1, within 0.25
        assert METRICS["peak_rss_mb"]["bound"] == 0.1
        assert ab.judge(METRICS["peak_rss_mb"], PARENT, change).verdict == "regression"
        judged = ab.judge(METRICS["cell_wall_ms_p50"], PARENT, change)
        assert judged.verdict == "within bound"


class TestGain:
    def test_resolved_improvement(self):
        judged = ab.judge(METRICS["cells_per_s"], PARENT, scaled(PARENT, 1.05))
        assert judged.verdict == "gain"
        assert (judged.wins, judged.losses) == (10, 0)
        assert judged.change_median > judged.parent_median

    def test_equal_runs_are_within_bound(self):
        judged = ab.judge(METRICS["setup_s"], PARENT, list(PARENT))
        assert (judged.wins, judged.losses) == (0, 0)
        assert judged.verdict == "within bound"


class TestCompileSources:
    def test_bytecode_is_written_even_when_python_is_told_not_to(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        module = tmp_path / "src" / "pkg" / "mod.py"
        module.parent.mkdir(parents=True)
        module.write_text("VALUE = 1\n")
        ab.compile_sources(tmp_path)
        assert len(list((module.parent / "__pycache__").glob("mod.*.pyc"))) == 1


class TestWorkReport:
    def test_prints_each_count_parent_to_change(self, capsys):
        roots = {"parent": Path("parent-tree"), "change": Path("change-tree")}
        counts = {
            ("parent-tree", "server_apc"):
                {"opcodes": 1_000_000, "py_calls": 40_000, "c_calls": 8_000},
            ("change-tree", "server_apc"):
                {"opcodes": 950_000, "py_calls": 36_000, "c_calls": 8_000},
            ("parent-tree", "fleet_diurnal"): None,  # a count that failed
            ("change-tree", "fleet_diurnal"):
                {"opcodes": 1, "py_calls": 1, "c_calls": 1},
        }
        calls = []

        def count(root, workload):
            calls.append((root, workload))
            return counts[(str(root), workload)]

        assert ab.report_work(["server_apc", "fleet_diurnal"], roots, count) is None
        assert calls == [
            (roots["parent"], "server_apc"), (roots["change"], "server_apc"),
            (roots["parent"], "fleet_diurnal"), (roots["change"], "fleet_diurnal"),
        ]
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["server_apc", "opcodes", "1,000,000", "950,000", "-5.00"] in rows
        assert ["server_apc", "Python", "calls", "40,000", "36,000", "-10.00"] in rows
        assert ["server_apc", "C", "calls", "8,000", "8,000", "+0.00"] in rows
        assert ["fleet_diurnal", "count", "failed"] in rows
        assert not any(row[:1] == ["fleet_diurnal"] and len(row) > 3 for row in rows)

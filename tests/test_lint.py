"""The static analysis pass: rules, suppressions, runner, CLI.

Each rule gets at least one positive case (the violation is found) and
one suppressed case (the ``# repro-lint: ignore[...]`` marker downgrades
it). The seeded-fault tests at the bottom are the PR's acceptance
check: an injected violation that the tier-1 suite alone would never
notice (the faulty module *runs* fine) is caught statically.
"""

from __future__ import annotations

import json

import pytest

from repro.lint import (
    RULES,
    get_rule,
    lint_paths,
    lint_source,
    rule_catalog,
)
from repro.lint.runner import classify_domain
from pathlib import Path

SIM_PATH = "src/repro/workloads/example.py"
TOOL_PATH = "src/repro/sweep/example.py"
TEST_PATH = "tests/test_example.py"


def codes(findings, *, include_suppressed=False):
    return sorted(
        f.code for f in findings if include_suppressed or not f.suppressed
    )


class TestRegistry:
    def test_all_eight_rules_registered(self):
        assert sorted(RULES) == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008",
        ]

    def test_rules_carry_docs(self):
        for rule in rule_catalog():
            assert rule.doc, rule.code
            assert rule.summary

    def test_get_rule_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_rule("RPR999")

    def test_domains_are_validated(self):
        from repro.lint.registry import register_rule

        with pytest.raises(ValueError):
            register_rule("RPR900", "bad", "bad", domains=("nonsense",))


class TestDomainClassification:
    @pytest.mark.parametrize(
        "path,domain",
        [
            ("src/repro/workloads/memcached.py", "sim"),
            ("src/repro/sim/engine.py", "sim"),
            ("src/repro/cli.py", "tools"),
            ("src/repro/sweep/session.py", "tools"),
            ("src/repro/lint/rules.py", "tools"),
            ("tests/test_server.py", "test"),
            ("benchmarks/bench_fleet.py", "test"),
            ("examples/quickstart.py", "tools"),
        ],
    )
    def test_classification(self, path, domain):
        assert classify_domain(Path(path)) == domain


class TestRpr001WallClock:
    def test_time_time_flagged_in_sim(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_import_alias_resolved(self):
        src = "import time as t\n\ndef f():\n    return t.monotonic()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_from_import_resolved(self):
        src = "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_datetime_now_flagged(self):
        src = (
            "from datetime import datetime\n\ndef f():\n    return datetime.now()\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_module_level_random_flagged(self):
        src = "import random\n\ndef f():\n    return random.random()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_seeded_random_instance_allowed(self):
        src = "import random\n\ndef f(seed):\n    return random.Random(seed)\n"
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_legacy_numpy_random_flagged(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.random()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_seeded_default_rng_allowed(self):
        src = "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n"
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_os_entropy_flagged(self):
        src = "import uuid\n\ndef f():\n    return uuid.uuid4()\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]

    def test_tools_domain_exempt(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert codes(lint_source(src, TOOL_PATH)) == []

    def test_suppression(self):
        src = (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: ignore[RPR001]\n"
        )
        report = lint_source(src, SIM_PATH)
        assert codes(report) == []
        assert codes(report, include_suppressed=True) == ["RPR001"]


class TestRpr002FloatTime:
    def test_float_literal_delay(self):
        src = "def f(sim, cb):\n    sim.schedule(1.5, cb)\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR002"]

    def test_true_division_in_time_arg(self):
        src = "def f(sim, cb, ns):\n    sim.schedule(ns / 2, cb)\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR002"]

    def test_floor_division_accepted(self):
        src = "def f(sim, cb, ns):\n    sim.schedule(ns // 2, cb)\n"
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_int_literal_accepted(self):
        src = "def f(sim, cb):\n    sim.schedule(10, cb)\n"
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_delay_constructor_checked(self):
        src = "def f(sim, cb):\n    PeriodicTimer(sim, 2.5, cb)\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR002"]

    def test_applies_in_test_domain(self):
        src = "def test_x(sim, cb):\n    sim.schedule(0.5, cb)\n"
        assert codes(lint_source(src, TEST_PATH)) == ["RPR002"]

    def test_suppression(self):
        src = (
            "def f(sim, cb):\n"
            "    sim.schedule(1.5, cb)  # repro-lint: ignore[RPR002]\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []


class TestRpr003UnorderedIteration:
    def test_set_iteration_into_schedule(self):
        src = (
            "def arm(sim, cb):\n"
            "    for delay in {10, 20, 30}:\n"
            "        sim.schedule(delay, cb)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR003"]

    def test_dict_values_into_schedule(self):
        src = (
            "def arm(sim, handlers):\n"
            "    for fn in handlers.values():\n"
            "        sim.schedule(10, fn)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR003"]

    def test_sorted_iteration_accepted(self):
        src = (
            "def arm(sim, cb, delays):\n"
            "    for delay in sorted(delays):\n"
            "        sim.schedule(delay, cb)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_set_comprehension_in_key_function(self):
        src = (
            "def cache_key(parts):\n"
            "    return '|'.join(p for p in set(parts))\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR003"]

    def test_plain_aggregation_over_values_accepted(self):
        src = (
            "def total(channels):\n"
            "    return sum(c.power_w for c in channels.values())\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_suppression(self):
        src = (
            "def arm(sim, cb):\n"
            "    for delay in {10, 20}:  # repro-lint: ignore[RPR003]\n"
            "        sim.schedule(delay, cb)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []


class TestRpr004CheckpointUnsafe:
    def test_generator_attribute(self):
        src = (
            "class Model:\n"
            "    def __init__(self, xs):\n"
            "        self.stream = (x for x in xs)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR004"]

    def test_lambda_attribute(self):
        src = (
            "class Model:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: 0\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR004"]

    def test_open_handle_attribute(self):
        src = (
            "class Model:\n"
            "    def __init__(self, path):\n"
            "        self.fh = open(path)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR004"]

    def test_slots_drift(self):
        src = (
            "class Model:\n"
            "    __slots__ = ('a',)\n"
            "    def __init__(self):\n"
            "        self.a = 1\n"
            "    def later(self):\n"
            "        self.b = 2\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR004"]

    def test_plain_state_accepted(self):
        src = (
            "class Model:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.items = []\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_suppression(self):
        src = (
            "class Model:\n"
            "    def __init__(self):\n"
            "        self.cb = lambda: 0  # repro-lint: ignore[RPR004]\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []


class TestRpr005SharedMeterPrefix:
    def test_meter_without_prefix(self):
        src = (
            "from repro.server.machine import ServerMachine\n\n"
            "def build(config, sim, meter):\n"
            "    return ServerMachine(config, sim=sim, meter=meter)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR005"]

    def test_meter_with_prefix_accepted(self):
        src = (
            "from repro.server.machine import ServerMachine\n\n"
            "def build(config, sim, meter):\n"
            "    return ServerMachine(\n"
            "        config, sim=sim, meter=meter, channel_prefix='s00.'\n"
            "    )\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_private_meter_accepted(self):
        src = (
            "from repro.server.machine import ServerMachine\n\n"
            "def build(config):\n"
            "    return ServerMachine(config, seed=1)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_suppression_on_comment_line_above(self):
        src = (
            "from repro.server.machine import ServerMachine\n\n"
            "def build(config, sim, meter):\n"
            "    # repro-lint: ignore[RPR005]\n"
            "    return ServerMachine(config, sim=sim, meter=meter)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []


class TestSuppressions:
    def test_bare_ignore_suppresses_everything(self):
        src = (
            "import time\n\ndef f(sim):\n"
            "    sim.schedule(1.5, time.time)  # repro-lint: ignore\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_targeted_ignore_leaves_other_rules(self):
        src = (
            "import time\n\ndef f(sim):\n"
            "    sim.schedule(1.5, time.time())  # repro-lint: ignore[RPR002]\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR001"]


class TestRunner:
    def test_select_restricts_rules(self):
        src = "import time\n\ndef f(sim):\n    sim.schedule(1.5, time.time())\n"
        assert codes(lint_source(src, SIM_PATH, select=["RPR002"])) == ["RPR002"]

    def test_select_rejects_unknown_code(self):
        with pytest.raises(KeyError):
            lint_source("x = 1\n", SIM_PATH, select=["RPR999"])

    def test_lint_paths_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "workloads" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:\n")
        report = lint_paths([tmp_path])
        assert not report.ok
        assert report.errors and "broken.py" in report.errors[0]

    def test_json_report_schema(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "workloads" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        report = lint_paths([tmp_path])
        payload = json.loads(report.to_json())
        assert payload["schema"] == 1
        assert payload["counts"] == {"RPR001": 1}
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "RPR001"

    def test_findings_are_position_sorted(self, tmp_path):
        f = tmp_path / "src" / "repro" / "workloads" / "two.py"
        f.parent.mkdir(parents=True)
        f.write_text(
            "import time\n\ndef f(sim):\n"
            "    sim.schedule(1.5, None)\n"
            "    return time.time()\n"
        )
        report = lint_paths([tmp_path])
        assert [x.line for x in report.findings] == sorted(
            x.line for x in report.findings
        )


class TestCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_list_rules_exits_zero(self, capsys):
        assert self.run_cli("lint", "--list-rules") == 0
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR005" in out

    def test_explain_rule(self, capsys):
        assert self.run_cli("lint", "--explain", "RPR004") == 0
        assert "checkpoint" in capsys.readouterr().out.lower()

    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "src" / "repro" / "workloads" / "ok.py"
        good.parent.mkdir(parents=True)
        good.write_text("X = 1\n")
        assert self.run_cli("lint", str(tmp_path)) == 0

    def test_lint_violation_exits_one_and_writes_json(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "workloads" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        out = tmp_path / "reports" / "report.json"  # parent not created yet
        code = self.run_cli(
            "lint", str(tmp_path), "--format", "json", "--out", str(out)
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["counts"] == {"RPR001": 1}

    def test_no_paths_is_usage_error(self, capsys):
        assert self.run_cli("lint") == 2


class TestRpr006RawMachineConfig:
    RAW = (
        "from repro.server.configs import MachineConfig\n"
        "\n"
        "def build():\n"
        "    return MachineConfig(\n"
        "        name='x', enabled_cstates=('CC1',),\n"
        "        governor='shallow', package_policy='none',\n"
        "    )\n"
    )

    def test_raw_policy_kwargs_flagged_in_sim(self):
        assert codes(lint_source(self.RAW, SIM_PATH)) == ["RPR006"]

    def test_raw_policy_kwargs_flagged_in_tools(self):
        assert codes(lint_source(self.RAW, TOOL_PATH)) == ["RPR006"]

    def test_test_domain_exempt(self):
        assert codes(lint_source(self.RAW, TEST_PATH)) == []

    def test_props_layer_exempt(self):
        # The property layer is where field mappings legitimately live.
        assert codes(lint_source(self.RAW, "src/repro/props/pset.py")) == []

    def test_config_presets_exempt(self):
        path = "src/repro/server/configs.py"
        assert codes(lint_source(self.RAW, path)) == []

    def test_policy_free_construction_allowed(self):
        src = (
            "from repro.server.configs import MachineConfig\n"
            "\n"
            "def rename(base):\n"
            "    import dataclasses\n"
            "    return dataclasses.replace(base, name='renamed')\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_suppression_marker_downgrades(self):
        src = self.RAW.replace(
            "    return MachineConfig(\n",
            "    return MachineConfig(  # repro-lint: ignore[RPR006]\n",
        )
        findings = lint_source(src, SIM_PATH)
        assert codes(findings) == []
        assert codes(findings, include_suppressed=True) == ["RPR006"]


class TestRpr007RawPStateTable:
    RAW = (
        "from repro.soc.pstates import PState, PStateTable\n"
        "\n"
        "def build():\n"
        "    return PStateTable(states=(\n"
        "        PState('P1', freq_ghz=2.0, voltage_v=0.8),\n"
        "    ))\n"
    )

    def test_raw_table_flagged_in_sim(self):
        # Both constructors are flagged: the table and its one state.
        assert codes(lint_source(self.RAW, SIM_PATH)) == ["RPR007", "RPR007"]

    def test_raw_table_flagged_in_tools(self):
        assert codes(lint_source(self.RAW, TOOL_PATH)) == ["RPR007", "RPR007"]

    def test_test_domain_exempt(self):
        assert codes(lint_source(self.RAW, TEST_PATH)) == []

    def test_props_layer_exempt(self):
        assert codes(lint_source(self.RAW, "src/repro/props/pset.py")) == []

    def test_pstates_module_exempt(self):
        # New ladders belong next to the existing ones.
        path = "src/repro/soc/pstates.py"
        assert codes(lint_source(self.RAW, path)) == []

    def test_named_lookup_allowed(self):
        src = (
            "from repro.soc.pstates import pstate_table_by_name\n"
            "\n"
            "def pick():\n"
            "    return pstate_table_by_name('skx')\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_suppression_marker_downgrades(self):
        src = self.RAW.replace(
            "    return PStateTable(states=(\n",
            "    return PStateTable(states=(  # repro-lint: ignore[RPR007]\n",
        ).replace(
            "        PState('P1', freq_ghz=2.0, voltage_v=0.8),\n",
            "        PState('P1', freq_ghz=2.0, voltage_v=0.8),"
            "  # repro-lint: ignore[RPR007]\n",
        )
        findings = lint_source(src, SIM_PATH)
        assert codes(findings) == []
        assert codes(findings, include_suppressed=True) == [
            "RPR007", "RPR007",
        ]


class TestRpr008ClockAndWireWrites:
    WRITES = (
        "def poke(sim, wire):\n"
        "    sim.now = 5\n"
        "    wire.value = True\n"
    )

    @pytest.mark.parametrize("path", [SIM_PATH, TOOL_PATH, TEST_PATH])
    def test_writes_flagged_in_every_domain(self, path):
        assert codes(lint_source(self.WRITES, path)) == ["RPR008", "RPR008"]

    def test_augmented_annotated_and_unpacking_writes_flagged(self):
        src = (
            "def poke(sim, machine, a, b):\n"
            "    sim.now += 1\n"
            "    machine.sim.now: int = 0\n"
            "    a.value, (b.value, _) = True, (False, 0)\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == ["RPR008"] * 4

    def test_kernel_may_move_the_clock(self):
        src = (
            "class Simulator:\n"
            "    def run(self, until_ns):\n"
            "        self.now = until_ns\n"
        )
        assert codes(lint_source(src, "src/repro/sim/engine.py")) == []
        assert codes(lint_source(src, SIM_PATH)) == ["RPR008"]

    def test_own_value_and_reads_allowed(self):
        src = (
            "class Signal:\n"
            "    def set(self, value):\n"
            "        self.value = True if value else False\n"
            "\n"
            "def read(sim, wire):\n"
            "    level = wire.value\n"
            "    now = sim.now\n"
            "    return level, now\n"
        )
        assert codes(lint_source(src, SIM_PATH)) == []

    def test_nested_self_attribute_flagged(self):
        src = "def f(self):\n    self.clm.ret.value = True\n"
        assert codes(lint_source(src, SIM_PATH)) == ["RPR008"]

    def test_suppression_marker_downgrades(self):
        src = "def f(wire):\n    wire.value = True  # repro-lint: ignore[RPR008]\n"
        findings = lint_source(src, TEST_PATH)
        assert codes(findings) == []
        assert codes(findings, include_suppressed=True) == ["RPR008"]


class TestRepoIsClean:
    """Pinning regressions: the violations this PR fixed stay fixed."""

    def test_src_is_lint_clean(self):
        report = lint_paths(["src"])
        assert report.ok, report.format_human()

    def test_tests_and_benchmarks_are_lint_clean(self):
        report = lint_paths(["tests", "benchmarks"])
        assert report.ok, report.format_human()

    def test_deliberate_violations_stay_suppressed(self):
        # The negative-path kernel tests deliberately pass float times
        # and build a prefix-less shared-meter machine; they must stay
        # marked (visible in --verbose) rather than silently exempted.
        report = lint_paths(["tests"])
        by_code = {}
        for finding in report.suppressed:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        assert by_code == {"RPR002": 6, "RPR005": 1}


class TestSeededFault:
    """Acceptance: an injected wall-clock fault runs clean but lints dirty."""

    FAULT = (
        "import time\n"
        "\n"
        "def arrival_gap_ns():\n"
        "    # Wall-clock-derived 'randomness': runs fine, reproduces never.\n"
        "    return 1 + int(time.time() * 1e9) % 1000\n"
    )

    def test_fault_executes_without_error(self, tmp_path):
        # The tier-1 suite alone cannot see this bug: the module runs.
        module = {}
        exec(compile(self.FAULT, "<fault>", "exec"), module)
        assert module["arrival_gap_ns"]() >= 1

    def test_static_rule_catches_it(self, tmp_path):
        fault = tmp_path / "src" / "repro" / "workloads" / "flaky.py"
        fault.parent.mkdir(parents=True)
        fault.write_text(self.FAULT)
        report = lint_paths([tmp_path])
        assert not report.ok
        assert [f.code for f in report.active] == ["RPR001"]

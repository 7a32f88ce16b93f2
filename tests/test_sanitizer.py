"""The runtime determinism sanitizer and the recycle round-trip check.

Counterpart to ``tests/test_lint.py``: the static rules catch hazards
at the source, the sanitizer catches them in flight. The seeded-fault
test here is the PR's runtime acceptance check — a set-iteration
scheduling pattern that runs green under ordinary assertions is
flagged as same-timestamp handler-order ambiguity by the sanitizer.
"""

from __future__ import annotations

import pytest

from repro.cell import measure_window
from repro.fleet import FleetCell, FleetMachine, flatten_fleet_result
from repro.lint import RoundTripReport, verify_recycle_roundtrip
from repro.scenarios.registry import build
from repro.server.configs import cpc1a
from repro.server.machine import ServerMachine
from repro.server.recycle import CheckpointError
from repro.sim.engine import Simulator
from repro.sim.sanitize import (
    AmbiguousTimestamp,
    EventStreamSanitizer,
    SanitizerReport,
    callback_label,
)
from repro.sweep import ExperimentSpec, flatten_result
from repro.units import MS


def handler_a():
    pass


def handler_b():
    pass


def handler_c(_tag):
    pass


class TestModeSelection:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sim = Simulator(0)
        assert sim.sanitize is False
        assert sim.sanitize_report() is None

    def test_kwarg_enables(self):
        sim = Simulator(0, sanitize=True)
        assert sim.sanitize is True
        assert isinstance(sim.sanitize_report(), SanitizerReport)

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(0).sanitize is True

    def test_env_var_zero_and_empty_disable(self, monkeypatch):
        for value in ("0", ""):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert Simulator(0).sanitize is False

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Simulator(0, sanitize=False).sanitize is False

    def test_machine_sanitize_kwarg(self):
        machine = ServerMachine(cpc1a(), 1, sanitize=True)
        assert machine.sim.sanitize is True

    def test_machine_rejects_sanitize_with_external_sim(self):
        sim = Simulator(1)
        with pytest.raises(ValueError, match="externally-owned"):
            ServerMachine(cpc1a(), sim=sim, sanitize=True)


def _chain(sim, depth):
    if depth:
        sim.schedule(7, _chain, sim, depth - 1)


def _stream_report(seed, *, extra=False):
    sim = Simulator(seed, sanitize=True)
    sim.schedule(1, _chain, sim, 20)
    if extra:
        sim.schedule(3, handler_a)
    sim.run()
    return sim.sanitize_report()


class TestDigest:
    def test_identical_runs_identical_digest(self):
        first = _stream_report(3)
        second = _stream_report(3)
        assert first.events == second.events == 21
        assert first.digest == second.digest
        assert len(first.digest) == 64

    def test_extra_event_changes_digest(self):
        assert _stream_report(3).digest != _stream_report(3, extra=True).digest

    def test_report_is_non_destructive(self):
        sim = Simulator(0, sanitize=True)
        sim.schedule(5, handler_a)
        sim.run()
        assert sim.sanitize_report() == sim.sanitize_report()


class TestAmbiguity:
    def test_single_site_burst_not_flagged(self):
        # One call site arming a burst at one moment: the order is
        # written in the code, not in scheduling history.
        sim = Simulator(0, sanitize=True)

        def arm():
            for tag in range(5):
                sim.schedule_at(100, handler_c, tag)

        sim.schedule(10, arm)
        sim.run()
        report = sim.sanitize_report()
        assert report.ambiguous_timestamps == 0
        assert report.max_same_time_events == 5

    def test_history_ordered_handlers_flagged(self):
        # Two distinct callbacks armed at two distinct sim moments,
        # rendezvousing at one timestamp: their relative order is an
        # artifact of everything that ran before.
        sim = Simulator(0, sanitize=True)
        sim.schedule(10, sim.schedule_at, 100, handler_a)
        sim.schedule(20, sim.schedule_at, 100, handler_b)
        sim.run()
        report = sim.sanitize_report()
        assert report.ambiguous_timestamps == 1
        detail = report.ambiguities[0]
        assert detail.time_ns == 100
        assert detail.events == 2
        assert callback_label(handler_a) in detail.callbacks
        assert callback_label(handler_b) in detail.callbacks
        assert "scheduling history" in detail.describe()

    def test_detail_cap_truncates_details_not_count(self):
        sanitizer = EventStreamSanitizer()
        for group in range(30):
            base = group * 100
            sanitizer.note_scheduled(2 * group, base - 60, handler_a)
            sanitizer.note_scheduled(2 * group + 1, base - 50, handler_b)
            sanitizer.observe(base, 2 * group, handler_a)
            sanitizer.observe(base, 2 * group + 1, handler_b)
        report = sanitizer.report()
        assert report.ambiguous_timestamps == 30
        assert len(report.ambiguities) == 25
        assert report.truncated is True


class TestSeededFaultSetOrderedScheduling:
    """Acceptance: a set-iteration scheduling fault runs green, sanitizer flags it."""

    def _run(self):
        sim = Simulator(0, sanitize=True)
        fired = []

        def flush():
            fired.append("flush")

        def refresh():
            fired.append("refresh")

        registry = {"flush": flush, "refresh": refresh}

        # The fault: maintenance handlers pulled through a set, each
        # armed from its own setup event, all rendezvousing at t=1000.
        # Which fires first at t=1000 is decided by arming order — i.e.
        # by set iteration order. In sim code RPR003 flags this
        # statically; here the runtime sanitizer is the net.
        delay = 10
        for name in set(registry):
            sim.schedule(delay, sim.schedule_at, 1_000, registry[name])
            delay += 10
        sim.run()
        return sim, fired

    def test_runs_green_under_ordinary_assertions(self):
        # The tier-1-style checks a test author would write all pass:
        # both handlers fired, exactly once, at the right time.
        sim, fired = self._run()
        assert sorted(fired) == ["flush", "refresh"]
        assert sim.now == 1_000

    def test_sanitizer_flags_the_ambiguous_rendezvous(self):
        sim, _ = self._run()
        report = sim.sanitize_report()
        assert report.ambiguous_timestamps == 1
        detail = report.ambiguities[0]
        assert detail.time_ns == 1_000
        assert detail.events == 2


def _plain_and_sanitized(cell, build, flatten):
    """(result row, kernel stats) of ``cell``'s window, sanitize off then on."""
    outcomes = []
    for sanitize in (False, True):
        runtime = build(sanitize)
        workload = cell.build_workload()
        measure_window(runtime, workload, cell.duration_ns, cell.warmup_ns)
        row = flatten(cell.collect(runtime, workload), spec=cell)
        outcomes.append((row, runtime.sim.kernel_stats()))
    _, (_, sanitized_stats) = outcomes
    # The sanitizer saw every event the sanitized run dispatched.
    report = runtime.sim.sanitize_report()
    assert report.events == sanitized_stats["events_processed"]
    return outcomes


class TestSanitizedRunMatchesPlain:
    """Sanitize mode dispatches through ``step`` yet ends where ``run`` does."""

    def _bounded_run(self, sanitize):
        sim = Simulator(seed=0, sanitize=sanitize)
        fired = []
        sim.schedule(10, fired.append, 10)
        sim.schedule(30, fired.append, 30).cancel()
        sim.schedule(40, fired.append, 40)
        sim.run(20)
        return sim.kernel_stats(), fired

    def test_bound_leaves_cancelled_entries_past_it(self):
        # The cancelled entry at 30 lies past the bound: both modes
        # leave it queued (a peek()-driven loop would retire it).
        plain = self._bounded_run(False)
        assert plain == self._bounded_run(True)
        assert plain[1] == [10]
        assert plain[0]["heap_size"] == 2 and plain[0]["cancelled_in_heap"] == 1

    def test_cpc1a_machine_window(self):
        cell = ExperimentSpec(
            workload="memcached", qps=50_000.0, preset="low", config="CPC1A",
            seed=3, duration_ns=8 * MS, warmup_ns=2 * MS,
        )
        plain, sanitized = _plain_and_sanitized(
            cell,
            lambda on: ServerMachine(cell.build_config(), seed=cell.seed, sanitize=on),
            flatten_result,
        )
        assert plain == sanitized

    def test_sleepscale_fleet_window(self):
        cell = FleetCell(
            workload="memcached-diurnal", qps=20_000.0, preset="low",
            machine="CPC1A", n_servers=8, routing="least-outstanding",
            seed=3, duration_ns=8 * MS, warmup_ns=2 * MS, control="sleepscale",
        )
        plain, sanitized = _plain_and_sanitized(
            cell,
            lambda on: FleetMachine(cell.cluster(), seed=cell.seed, sanitize=on),
            flatten_fleet_result,
        )
        assert plain == sanitized


class TestRecycleRoundTrip:
    def test_memcached_roundtrip_matches(self):
        report = verify_recycle_roundtrip(
            lambda: build("memcached", qps=2000.0),
            cpc1a(),
            seed=7,
            duration_ns=5 * MS,
        )
        assert report.match is True
        assert report.fresh.events > 0
        assert report.fresh.digest == report.recycled.digest
        assert "match" in report.describe()

    def test_mismatch_is_described_as_divergence(self):
        good = SanitizerReport(
            events=10, digest="a" * 64, ambiguous_timestamps=0,
            max_same_time_events=1,
        )
        bad = SanitizerReport(
            events=11, digest="b" * 64, ambiguous_timestamps=0,
            max_same_time_events=1,
        )
        report = RoundTripReport(
            seed=0, duration_ns=1_000, fresh=good, recycled=bad
        )
        assert report.match is False
        assert "DIVERGED" in report.describe()


class TestRestoreAudit:
    def _recycled_machine(self):
        machine = ServerMachine(cpc1a(), 1, sanitize=True)
        machine.checkpoint()
        machine.run_for(1 * MS)
        machine.recycle(cpc1a(), 2)
        return machine

    def test_faithful_restore_passes_the_audit(self):
        # recycle() under sanitize runs the audit internally; a clean
        # return is the pass.
        machine = self._recycled_machine()
        assert machine.sim.now == 0

    def test_extra_event_after_restore_fails_length_check(self):
        # Simulates a component side effect re-arming a timer during
        # restore: one more live event than the capture plan recorded.
        machine = self._recycled_machine()
        machine.sim.schedule(5, handler_a)
        with pytest.raises(CheckpointError, match="restore audit"):
            machine._checkpoint._verify_restore(machine.sim)

    def test_swapped_callback_fails_content_check(self):
        machine = self._recycled_machine()
        replay = machine._checkpoint._replay
        time_ns, _fn, args = replay[0]
        replay[0] = (time_ns, handler_b, args)
        with pytest.raises(CheckpointError, match="diverged at replay index 0"):
            machine._checkpoint._verify_restore(machine.sim)

    def test_checkpoint_rejects_generator_attribute(self):
        # The static rule RPR004 bans this pattern at the source; the
        # walker is the runtime backstop.
        machine = ServerMachine(cpc1a(), 1, sanitize=True)
        machine.stream = (i for i in range(3))
        with pytest.raises(CheckpointError, match="generator"):
            machine.checkpoint()


def test_ambiguous_timestamp_is_frozen_value_type():
    detail = AmbiguousTimestamp(time_ns=5, callbacks=("a", "b"), events=2)
    with pytest.raises(AttributeError):
        detail.events = 3

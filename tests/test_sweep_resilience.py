"""The fault-tolerant execution plane: supervisor, chaos, journal.

Covers the PR-9 robustness overhaul: :class:`SweepSupervisor` (worker
death detection + respawn, per-cell deadlines, bounded retries with
quarantine), the deterministic chaos harness (``REPRO_CHAOS``), the
crash-safe :class:`RunJournal` behind ``repro sweep --resume``,
checksum-verified :class:`ResultStore` reads, and the CLI-level
SIGKILL/SIGINT recovery paths.

The headline invariant pinned here: a chaos-ridden sweep finishes
with byte-identical results to a fault-free one.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import run_cell
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
)
from repro.sweep import chaos
from repro.sweep.journal import JOURNAL_SCHEMA, JournalError, RunJournal
from repro.sweep.store import _checksum
from repro.sweep.supervisor import (
    KIND_DEADLINE,
    KIND_DEATH,
    KIND_ERROR,
    CellPolicy,
    QuarantineExhausted,
    SweepSupervisor,
)
from repro.units import MS

FAST = CellPolicy(retry_backoff_s=0.0, respawn_backoff_s=0.01)


def _echo(payload, attempt):
    return ("ok", payload, attempt)


def _fail_below_attempt(payload, attempt):
    # payload = (value, first_good_attempt)
    value, first_good = payload
    if attempt < first_good:
        raise RuntimeError(f"transient failure on attempt {attempt}")
    return value


def _exit_below_attempt(payload, attempt):
    # Simulates SIGKILL/OOM: no cleanup, no message, instant death.
    value, first_good = payload
    if attempt < first_good:
        os._exit(137)
    return value


def _stall_below_attempt(payload, attempt):
    value, first_good = payload
    if attempt < first_good:
        time.sleep(30)
    return value


def drain(supervisor, items):
    done, quarantined = {}, []
    for tag, body in supervisor.run(items):
        if tag == "done":
            done[body[1] if isinstance(body, tuple) else body] = body
        else:
            quarantined.append(body)
    return done, quarantined


class TestSupervisor:
    def test_completes_every_item(self):
        sup = SweepSupervisor(2, _echo, FAST)
        try:
            items = [(f"k{i}", f"cell{i}", i) for i in range(8)]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert all(tag == "done" for tag, _ in events)
        assert sorted(body[1] for _, body in events) == list(range(8))
        assert sup.stats["worker_deaths"] == 0
        assert sup.stats["quarantined"] == 0

    def test_transient_errors_retry_to_success(self):
        sup = SweepSupervisor(2, _fail_below_attempt, FAST)
        try:
            items = [
                ("a", "cell-a", ("A", 3)),  # fails attempts 1-2
                ("b", "cell-b", ("B", 1)),
                ("c", "cell-c", ("C", 2)),  # fails attempt 1
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert sorted(body for tag, body in events if tag == "done") == [
            "A", "B", "C",
        ]
        assert sup.stats["retries"] == 3
        assert sup.stats["quarantined"] == 0

    def test_exhausted_cell_is_quarantined_with_history(self):
        policy = CellPolicy(max_retries=1, retry_backoff_s=0.0)
        sup = SweepSupervisor(2, _fail_below_attempt, policy)
        try:
            items = [
                ("bad", "always-bad", ("X", 99)),
                ("good", "fine", ("Y", 1)),
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        by_tag = {}
        for tag, body in events:
            by_tag.setdefault(tag, []).append(body)
        assert by_tag["done"] == ["Y"]
        (cell,) = by_tag["quarantined"]
        assert cell.key == "bad" and cell.label == "always-bad"
        assert [f.attempt for f in cell.failures] == [1, 2]
        assert all(f.kind == KIND_ERROR for f in cell.failures)
        assert "transient failure" in cell.failures[0].detail
        assert sup.stats["quarantined"] == 1
        report = cell.as_dict()
        assert report["attempts"] == 2
        assert report["failures"][1]["kind"] == KIND_ERROR

    def test_raise_mode_aborts_on_exhaustion(self):
        policy = CellPolicy(
            max_retries=0, retry_backoff_s=0.0, on_exhausted="raise"
        )
        sup = SweepSupervisor(1, _fail_below_attempt, policy)
        try:
            with pytest.raises(QuarantineExhausted) as err:
                list(sup.run([("bad", "always-bad", ("X", 99))]))
            assert err.value.cell.key == "bad"
        finally:
            sup.close()

    def test_worker_death_requeues_and_respawns(self):
        sup = SweepSupervisor(2, _exit_below_attempt, FAST)
        try:
            items = [
                (f"k{i}", f"cell{i}", (i, 2 if i % 3 == 0 else 1))
                for i in range(9)
            ]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert sorted(body for _, body in events) == list(range(9))
        assert sup.stats["worker_deaths"] == 3
        assert sup.stats["requeues"] == 3
        assert sup.stats["respawns"] >= 1
        assert sup.stats["quarantined"] == 0

    def test_external_sigkill_mid_cell_recovers(self):
        sup = SweepSupervisor(2, _stall_below_attempt, FAST)
        killed = []

        def killer():
            deadline = time.monotonic() + 30
            while not killed and time.monotonic() < deadline:
                for pid in sup.inflight_pids():
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=killer)
        thread.start()
        try:
            # The stalling cell wedges its worker until the killer
            # lands; attempt 2 returns instantly on the replacement.
            items = [("k0", "stuck-once", ("V", 2))]
            events = list(sup.run(items))
        finally:
            thread.join()
            sup.close()
        assert killed, "killer thread never found an in-flight worker"
        assert events == [("done", "V")]
        assert sup.stats["worker_deaths"] == 1
        assert sup.stats["requeues"] == 1

    def test_deadline_kills_stuck_cell_and_retries(self):
        policy = CellPolicy(
            retry_backoff_s=0.0, deadline_s=0.25, respawn_backoff_s=0.01
        )
        sup = SweepSupervisor(2, _stall_below_attempt, policy)
        try:
            items = [("k0", "stuck-once", ("V", 2)), ("k1", "fine", ("W", 1))]
            events = list(sup.run(items))
        finally:
            sup.close()
        assert sorted(body for _, body in events) == ["V", "W"]
        assert sup.stats["deadline_kills"] == 1
        assert sup.stats["requeues"] == 1

    def test_deadline_exhaustion_quarantines_with_kind(self):
        policy = CellPolicy(
            max_retries=0, retry_backoff_s=0.0, deadline_s=0.2,
            respawn_backoff_s=0.01,
        )
        sup = SweepSupervisor(1, _stall_below_attempt, policy)
        try:
            events = list(sup.run([("k0", "forever-stuck", ("V", 99))]))
        finally:
            sup.close()
        ((tag, cell),) = events
        assert tag == "quarantined"
        assert cell.failures[-1].kind in (KIND_DEADLINE, KIND_DEATH)
        assert sup.stats["deadline_kills"] == 1

    def test_duplicate_keys_rejected(self):
        sup = SweepSupervisor(1, _echo, FAST)
        try:
            with pytest.raises(ValueError, match="unique"):
                list(sup.run([("k", "a", 1), ("k", "b", 2)]))
        finally:
            sup.close()

    def test_workers_persist_across_runs(self):
        sup = SweepSupervisor(2, _echo, FAST)
        try:
            list(sup.run([(f"k{i}", "c", i) for i in range(4)]))
            before = sorted(sup.worker_pids())
            list(sup.run([(f"j{i}", "c", i) for i in range(4)]))
            after = sorted(sup.worker_pids())
        finally:
            sup.close()
        assert before == after


class TestChaosConfig:
    def test_parse_full_spec(self):
        cfg = chaos.parse_chaos(
            "seed=7,kill=0.05,fault=0.1,stall=0.02,stall_s=1.5,torn=0.2"
        )
        assert cfg == chaos.ChaosConfig(
            seed=7, kill=0.05, fault=0.1, stall=0.02, torn=0.2, stall_s=1.5
        )
        assert cfg.active

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError, match="knobs are"):
            chaos.parse_chaos("kill=0.1,frobnicate=1")
        with pytest.raises(ValueError, match="value for kill"):
            chaos.parse_chaos("kill=lots")
        with pytest.raises(ValueError, match="probability"):
            chaos.parse_chaos("fault=1.5")

    def test_empty_spec_is_inactive(self):
        assert not chaos.parse_chaos("").active
        assert not chaos.ChaosConfig(seed=3).active

    def test_config_tracks_env(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        assert not chaos.config().active
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,fault=0.5")
        assert chaos.config().fault == 0.5
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,fault=0.25")
        assert chaos.config().fault == 0.25

    def test_rolls_are_deterministic_and_distinct(self):
        cfg = chaos.ChaosConfig(seed=7)
        roll = chaos._roll(cfg, "kill", "cellkey", 1)
        assert roll == chaos._roll(cfg, "kill", "cellkey", 1)
        assert 0.0 <= roll < 1.0
        others = {
            chaos._roll(cfg, "kill", "cellkey", 2),
            chaos._roll(cfg, "fault", "cellkey", 1),
            chaos._roll(chaos.ChaosConfig(seed=8), "kill", "cellkey", 1),
        }
        assert roll not in others

    def test_kill_never_fires_in_parent(self, monkeypatch):
        # kill=1 would os._exit a worker; in the parent the fault
        # knob is the worst that can happen.
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,kill=1,fault=1")
        with pytest.raises(chaos.ChaosError):
            chaos.on_cell_start("somekey", 1)

    def test_torn_write_inactive_without_env(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        assert not chaos.torn_write("anykey")


class TestRunJournal:
    def test_fresh_journal_header_and_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1", "cell-1")
            journal.record("k2", "cell-2")
            journal.record("k1", "cell-1")  # idempotent
            assert len(journal) == 2 and "k1" in journal
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"journal": "repro-sweep", "schema": JOURNAL_SCHEMA}
        assert lines[1:] == [
            {"key": "k1", "label": "cell-1"},
            {"key": "k2", "label": "cell-2"},
        ]

    def test_resume_loads_keys_and_appends(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1")
        with RunJournal(path, resume=True) as journal:
            assert journal.completed == frozenset({"k1"})
            journal.record("k2")
        with RunJournal(path, resume=True) as journal:
            assert journal.completed == frozenset({"k1", "k2"})

    def test_resume_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "lab')  # SIGKILL mid-append
        with RunJournal(path, resume=True) as journal:
            assert journal.completed == frozenset({"k1"})

    def test_resume_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"journal": "repro-sweep", "schema": 999}\n')
        with pytest.raises(JournalError, match="schema"):
            RunJournal(path, resume=True)
        path.write_text('{"some": "other file"}\n')
        with pytest.raises(JournalError):
            RunJournal(path, resume=True)

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record("k1")
        with RunJournal(path) as journal:  # resume=False: new campaign
            assert journal.completed == frozenset()
        assert "k1" not in path.read_text()

    def test_record_after_close_is_noop(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.close()
        journal.record("k1")  # must not raise
        assert "k1" not in journal


def small_spec(seed=1):
    return ExperimentSpec(
        workload="memcached", qps=4_000.0, preset="low", config="CPC1A",
        seed=seed, duration_ns=3 * MS, warmup_ns=1 * MS,
    )


class TestStoreRobustness:
    def put_one(self, tmp_path, seed=1):
        store = ResultStore(tmp_path / "cache")
        spec = small_spec(seed)
        result = run_cell(spec)
        store.put(spec.key(), result, spec=spec)
        return store, spec, result

    def record_path(self, store, spec):
        (path,) = [
            p for p in Path(store.root).iterdir()
            if p.is_file() and spec.key() in p.name
        ]
        return path

    def test_truncated_record_quarantined_as_miss(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        assert store.get(spec.key()) is None
        assert store.quarantined == 1
        assert not path.exists()
        quarantined = list((Path(store.root) / "quarantine").iterdir())
        assert len(quarantined) == 1

    def test_garbage_and_wrong_schema_quarantined(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        path.write_text("not json at all")
        assert store.get(spec.key()) is None
        path.write_text(json.dumps({"something": "else"}))
        assert store.get(spec.key()) is None
        assert store.quarantined == 2

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        record = json.loads(path.read_text())
        assert "sha256" in record
        record["result"]["energy_j"] = 1e9  # silent bit-rot
        path.write_text(json.dumps(record))
        assert store.get(spec.key()) is None
        assert store.quarantined == 1

    def test_legacy_record_without_checksum_accepted(self, tmp_path):
        store, spec, result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        record = json.loads(path.read_text())
        del record["sha256"]
        path.write_text(json.dumps(record))
        loaded = store.get(spec.key())
        assert loaded is not None
        assert loaded.as_dict() == result.as_dict()

    def test_verify_reports_and_quarantines(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path, seed=1)
        store2, spec2, _result2 = store, small_spec(2), None
        store.put(spec2.key(), run_cell(spec2), spec=spec2)
        path = self.record_path(store, spec)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        report = store.verify(quarantine=False)
        assert report["checked"] == 2 and report["ok"] == 1
        assert len(report["corrupt"]) == 1
        assert path.exists()  # quarantine=False leaves it in place
        report = store.verify()
        assert len(report["corrupt"]) == 1
        assert not path.exists()

    def test_gc_sweeps_quarantine_and_tmp(self, tmp_path):
        store, spec, _result = self.put_one(tmp_path)
        path = self.record_path(store, spec)
        path.write_text("garbage")
        assert store.get(spec.key()) is None
        (Path(store.root) / "leftover.1234.tmp").write_text("")
        report = store.gc()
        assert report["quarantine_removed"] == 1
        assert report["tmp_removed"] == 1
        assert store.get(spec.key()) is None  # still a miss, no crash

    def test_chaos_torn_write_is_self_healing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        spec = small_spec()
        result = run_cell(spec)
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,torn=1")
        store.put(spec.key(), result, spec=spec)
        assert store.get(spec.key()) is None  # torn record quarantined
        monkeypatch.delenv(chaos.ENV_VAR)
        store.put(spec.key(), result, spec=spec)
        loaded = store.get(spec.key())
        assert loaded.as_dict() == result.as_dict()

    def test_checksum_is_canonical(self):
        assert _checksum({"a": 1, "b": 2}) == _checksum({"b": 2, "a": 1})
        assert _checksum({"a": 1}) != _checksum({"a": 2})


def chaos_grid():
    points = (
        WorkloadPoint("idle"),
        WorkloadPoint("memcached", qps=8_000.0),
    )
    return SweepSpec(
        points, configs=("Cshallow", "CPC1A"), seeds=(1,),
        duration_ns=3 * MS, warmup_ns=1 * MS,
    )


class TestChaosSweepIdentity:
    """The headline invariant: chaos bytes == fault-free bytes."""

    def test_chaotic_parallel_run_matches_clean_serial(self, monkeypatch):
        spec = chaos_grid()
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        with SweepSession(workers=1) as session:
            clean = session.run(spec)
        # High fault rates + a deep retry budget: every cell fails a
        # few times somewhere yet nothing exhausts.
        monkeypatch.setenv(chaos.ENV_VAR, "seed=3,kill=0.4,fault=0.4")
        policy = CellPolicy(
            max_retries=12, retry_backoff_s=0.0, respawn_backoff_s=0.01
        )
        with SweepSession(workers=2, policy=policy) as session:
            chaotic = session.run(spec)
            stats = session.last_run_stats
        assert chaotic.quarantined == []
        assert [r.as_dict() for r in chaotic.results] == [
            r.as_dict() for r in clean.results
        ]
        faults = stats["worker_deaths"] + stats["retries"] + stats["requeues"]
        assert faults > 0, f"chaos injected nothing: {stats}"


def parity_grid():
    points = (
        WorkloadPoint("idle"),
        WorkloadPoint("memcached", qps=20_000.0),
    )
    return SweepSpec(
        points, configs=("Cshallow", "CPC1A"), seeds=(1, 2, 3),
        duration_ns=2 * MS, warmup_ns=1 * MS,
    )


def run_outcome(workers, policy):
    """A run's completed cells, results, quarantine records and counters."""
    with SweepSession(workers=workers, policy=policy) as session:
        results = session.run(parity_grid())
        stats = session.last_run_stats
    quarantined = sorted(
        (cell.key, [(f.attempt, f.kind) for f in cell.failures])
        for cell in results.quarantined
    )
    counters = {k: stats[k] for k in ("retries", "requeues", "quarantined")}
    return (
        [cell.key() for cell in results.cells],
        [result.as_dict() for result in results.results],
        quarantined,
        counters,
    )


class TestSerialSupervisedParity:
    """Serial and supervised runs share one retry ledger, so the same
    injected faults give the same outcome on both paths."""

    CHAOS = "seed=3,fault=0.4"

    def test_exhausted_cells_quarantine_alike(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, self.CHAOS)
        policy = CellPolicy(max_retries=0, retry_backoff_s=0.0)
        serial = run_outcome(1, policy)
        supervised = run_outcome(2, policy)
        assert serial == supervised
        cells, _results, quarantined, counters = serial
        assert len(quarantined) >= 1, "chaos injected nothing"
        assert len(cells) + len(quarantined) == len(parity_grid())
        assert all(kinds == [(1, KIND_ERROR)] for _key, kinds in quarantined)
        assert counters == {
            "retries": 0, "requeues": 0, "quarantined": len(quarantined),
        }

    def test_retried_cells_complete_alike(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, self.CHAOS)
        policy = CellPolicy(max_retries=1, retry_backoff_s=0.0)
        serial = run_outcome(1, policy)
        supervised = run_outcome(2, policy)
        assert serial == supervised
        cells, _results, quarantined, counters = serial
        assert quarantined == []
        assert len(cells) == len(parity_grid())
        assert counters["retries"] >= 1
        assert counters["requeues"] == counters["quarantined"] == 0

    def test_lone_cell_honours_the_deadline(self, monkeypatch):
        """One pending cell on a multi-worker session still runs
        supervised when a deadline is set: in-process, nothing could
        kill it."""
        monkeypatch.setenv(chaos.ENV_VAR, "seed=1,stall=1,stall_s=3")
        policy = CellPolicy(
            max_retries=0, retry_backoff_s=0.0, deadline_s=0.5,
            respawn_backoff_s=0.01,
        )
        spec = SweepSpec(
            (WorkloadPoint("idle"),), configs=("CPC1A",), seeds=(1,),
            duration_ns=2 * MS, warmup_ns=1 * MS,
        )
        with SweepSession(workers=2, policy=policy) as session:
            results = session.run(spec)
            stats = session.last_run_stats
        assert len(results) == 0
        ((cell,),) = [results.quarantined]
        assert [f.kind for f in cell.failures] == [KIND_DEADLINE]
        assert stats["deadline_kills"] == 1
        assert stats["quarantined"] == 1


REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env=None, **kwargs):
    full_env = dict(os.environ, PYTHONPATH=REPO_SRC)
    full_env.pop("REPRO_CHAOS", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, env=full_env, timeout=300, **kwargs,
    )


def spawn_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    env.pop("REPRO_CHAOS", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


GRID = [
    "sweep", "--rates", "0,8000", "--configs", "Cshallow,CPC1A",
    "--seeds", "1,2", "--duration-ms", "3", "--workers", "2",
    "--no-progress", "--retry-backoff", "0.01",
]

# Cells slow enough (~0.3 s wall each) that a signal sent after the
# first journaled cell reliably lands while most of the grid is still
# in flight — the fast GRID above can finish inside the signal's
# delivery latency.
SLOW_GRID = [
    "sweep", "--rates", "50000", "--configs", "Cshallow,CPC1A",
    "--seeds", "1,2,3", "--duration-ms", "50", "--workers", "2",
    "--no-progress", "--retry-backoff", "0.01",
]


def wait_for_journal(path: Path, lines: int, timeout_s: float = 120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if path.exists() and len(path.read_text().splitlines()) >= lines:
            return
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {lines} lines")


def child_pids(pid: int) -> list[int]:
    """The child processes of ``pid``, read from Linux procfs."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    if not path.exists():
        pytest.skip("reading child processes needs Linux procfs")
    return [int(token) for token in path.read_text().split()]


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    # The state follows the parenthesized command name; a child that
    # exited but was not yet reaped by its new parent reads "Z".
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def still_running_after(pids: list[int], timeout_s: float) -> list[int]:
    """The ``pids`` still running once ``timeout_s`` has passed."""
    deadline = time.monotonic() + timeout_s
    alive = [pid for pid in pids if _running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _running(pid)]
    return alive


@pytest.mark.slow
class TestCliRecovery:
    def test_parent_sigkill_then_resume_is_byte_identical(self, tmp_path):
        clean = run_cli(GRID + ["--out", "clean.csv"], cwd=tmp_path)
        assert clean.returncode == 0, clean.stderr
        journal = tmp_path / "store" / "journal.jsonl"
        proc = spawn_cli(
            GRID + ["--out", "out.csv", "--store", "store"], cwd=tmp_path
        )
        try:
            # Header + 2 completed cells ~= half the 8-cell grid.
            wait_for_journal(journal, 3)
            workers = child_pids(proc.pid)
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stderr.close()
        # The pool's workers must see EOF on their job pipes once the
        # supervisor is gone, and exit rather than linger as orphans.
        assert workers
        survivors = still_running_after(workers, timeout_s=10.0)
        for pid in survivors:  # do not leak them when the check fails
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"workers outlived the killed sweep: {survivors}"
        killed_at = len(journal.read_text().splitlines()) - 1
        resume = run_cli(
            GRID + [
                "--out", "out.csv", "--store", "store", "--resume",
                "--stats-json", "stats.json",
            ],
            cwd=tmp_path,
        )
        assert resume.returncode == 0, resume.stderr
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["journal_skipped"] >= killed_at >= 2
        assert stats["simulated"] <= stats["cells"] - killed_at
        assert stats["quarantined"] == 0
        assert (tmp_path / "out.csv").read_bytes() == (
            tmp_path / "clean.csv"
        ).read_bytes()

    def test_sigint_flushes_and_reports(self, tmp_path):
        journal = tmp_path / "store" / "journal.jsonl"
        proc = spawn_cli(
            SLOW_GRID + ["--out", "out.csv", "--store", "store"], cwd=tmp_path
        )
        try:
            wait_for_journal(journal, 2)
            proc.send_signal(signal.SIGINT)
            _stdout, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        assert proc.returncode == 130, stderr
        assert "interrupted:" in stderr
        assert "--resume" in stderr
        # The partial CSV is durable and well-formed (header + rows).
        out = (tmp_path / "out.csv").read_text().splitlines()
        assert len(out) >= 1
        resume = run_cli(
            SLOW_GRID + ["--out", "out.csv", "--store", "store", "--resume"],
            cwd=tmp_path,
        )
        assert resume.returncode == 0, resume.stderr
        clean = run_cli(SLOW_GRID + ["--out", "clean.csv"], cwd=tmp_path)
        assert clean.returncode == 0
        assert (tmp_path / "out.csv").read_bytes() == (
            tmp_path / "clean.csv"
        ).read_bytes()

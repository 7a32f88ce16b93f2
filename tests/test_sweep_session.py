"""The sweep-throughput rework: reset/recycle, sessions, streaming.

Covers the PR-4 overhaul: ``Simulator.reset``, the machine
checkpoint/restore walker behind ``ServerMachine.recycle`` (with the
recycle-vs-fresh golden pins across every registered scenario),
``SweepSession`` (persistent pool, warm machines, batched dispatch,
ordered streaming, worker-side store short-circuit), worker exception
labelling, and the hardened atomic store writes.
"""

from __future__ import annotations

import dataclasses
import json
from types import MappingProxyType

import pytest

from repro.api import run_cell
from repro.scenarios import registry as scenarios
from repro.server.configs import MachineConfig, config_by_name
from repro.server.experiment import run_experiment
from repro.server.machine import ServerMachine
from repro.server.recycle import CheckpointError, MachineCheckpoint, _is_immutable
from repro.sim.engine import Simulator
from repro.sweep import (
    ExperimentSpec,
    MemoryStore,
    ResultStore,
    StreamingCsvWriter,
    SweepCellError,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
)
from repro.sweep.session import _cell_task, clear_warm_machines
from repro.sweep.store import _canonical
from repro.sweep.supervisor import CellPolicy
from repro.units import MS


def result_blob(result) -> str:
    """Canonical byte-level rendering of a result (kernel included)."""
    return json.dumps(result.as_dict(), sort_keys=True)


def scenario_point(name: str) -> tuple[float, str]:
    """A representative (qps, preset) operating point for a scenario."""
    scenario = scenarios.get(name)
    if scenario.kind == "rate":
        rates = [r for r in scenario.default_rates if r > 0]
        return (rates[0] if rates else 0.0), "low"
    if scenario.kind == "preset":
        return 0.0, scenario.default_presets[0]
    return 0.0, ""  # fixed / trace (bundled default)


class TestSimulatorReset:
    def test_reset_matches_fresh_construction(self):
        sim = Simulator(seed=3)
        fired = []
        sim.schedule(10, fired.append, "a")
        keep = sim.schedule(20, fired.append, "b")
        sim.run()
        keep.cancel()
        sim.schedule(5, fired.append, "c")
        sim.reset(7)
        fresh = Simulator(seed=7)
        assert sim.kernel_stats() == fresh.kernel_stats()
        assert sim.now == 0 and sim.heap_size == 0
        assert sim.seed == 7
        # The RNG stream restarts from the new seed.
        assert sim.rng.integers(1 << 30) == fresh.rng.integers(1 << 30)

    def test_reset_defaults_to_original_seed(self):
        sim = Simulator(seed=11)
        first = sim.rng.integers(1 << 30)
        sim.reset()
        assert sim.seed == 11
        assert sim.rng.integers(1 << 30) == first

    def test_reset_retires_pending_events(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.reset()
        assert not event.pending
        sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_processed == 1


class TestRecycleGolden:
    @pytest.mark.parametrize("config_name", ["Cshallow", "Cdeep", "CPC1A"])
    def test_recycled_machine_is_byte_identical_across_scenarios(self, config_name):
        """One machine recycled through *every* registered scenario
        must reproduce each fresh-build result exactly — including the
        kernel counters, the strictest available determinism pin."""
        config = config_by_name(config_name)
        machine = ServerMachine(config, seed=1)
        machine.checkpoint()
        for index, name in enumerate(scenarios.scenario_names()):
            qps, preset = scenario_point(name)
            seed = index % 3 + 1
            machine.recycle(config_by_name(config_name), seed)
            warm = run_experiment(
                scenarios.build(name, qps, preset), config,
                duration_ns=3 * MS, warmup_ns=1 * MS, seed=seed,
                machine=machine,
            )
            cold = run_experiment(
                scenarios.build(name, qps, preset), config,
                duration_ns=3 * MS, warmup_ns=1 * MS, seed=seed,
            )
            assert result_blob(warm) == result_blob(cold), (
                f"{config_name}/{name} diverged on a recycled machine"
            )

    def test_recycle_mid_clm_ramp_matches_fresh_build(self):
        """A cell window can end inside a CLM voltage ramp, with both
        FIVR PwrOk inputs low. The recycled machine's combined PwrOk
        must still drop on the next ramp, and its results must match
        a fresh build."""
        config = config_by_name("CPC1A")
        machine = ServerMachine(config, seed=1)
        machine.checkpoint()
        machine.clm.ret.set(True)  # both FIVRs start ramping down
        assert machine.clm.fivrs[0].ramping
        assert not machine.clm.pwr_ok.value
        machine.recycle(config, 2)
        assert machine.clm.pwr_ok.value
        machine.clm.ret.set(True)  # ramp again, then recycle mid-ramp
        assert not machine.clm.pwr_ok.value
        machine.recycle(config, 2)
        warm = run_experiment(
            scenarios.build("memcached", 20_000.0, "low"), config,
            duration_ns=3 * MS, warmup_ns=1 * MS, seed=2, machine=machine,
        )
        cold = run_experiment(
            scenarios.build("memcached", 20_000.0, "low"), config,
            duration_ns=3 * MS, warmup_ns=1 * MS, seed=2,
        )
        assert result_blob(warm) == result_blob(cold)

    def test_recycle_requires_checkpoint(self):
        config = config_by_name("CPC1A")
        machine = ServerMachine(config, seed=1)
        with pytest.raises(RuntimeError, match="checkpoint"):
            machine.recycle(config, 2)

    def test_recycle_rejects_config_mismatch(self):
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)
        machine.checkpoint()
        with pytest.raises(ValueError, match="Cshallow"):
            machine.recycle(config_by_name("Cshallow"), 1)

    def test_checkpoint_requires_fresh_machine(self):
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)
        machine.run_for(1 * MS)
        with pytest.raises(CheckpointError, match="freshly built"):
            machine.checkpoint()

    def test_tick_configs_are_not_recyclable(self):
        """OsTimerTicks holds its staggered arm events, which the
        walker refuses to snapshot — the worker path falls back to
        fresh builds for such configs instead of corrupting state."""
        config = MachineConfig(
            name="Cshallow", enabled_cstates=("CC1",), governor="shallow",
            package_policy="none", timer_tick_hz=250,
        )
        machine = ServerMachine(config, seed=1)
        with pytest.raises(CheckpointError, match="Event"):
            machine.checkpoint()

    def test_walker_rejects_unknown_state_types(self):
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)
        machine.latency._strange = bytearray(b"mutable")
        with pytest.raises(CheckpointError, match="bytearray"):
            MachineCheckpoint(machine)

    def test_walker_captures_callable_component_state(self):
        """A repro component that happens to define __call__ is still
        walked (not skipped as a plain-function leaf): its mutable
        state must restore like any other component's."""
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)

        class CallablePolicy:
            __module__ = "repro.soc.governors"

            def __init__(self):
                self.history = []

            def __call__(self):  # pragma: no cover - never invoked
                pass

        machine._policy = CallablePolicy()
        checkpoint = MachineCheckpoint(machine)
        machine._policy.history.append(42)
        checkpoint.restore(1)
        assert machine._policy.history == []


@dataclasses.dataclass(frozen=True)
class FrozenLog:
    """A frozen repro-side object that holds a mutable list."""

    __module__ = "repro.power.budgets"

    entries: list


@dataclasses.dataclass(frozen=True)
class TableSpec:
    """A frozen power spec whose table type the test chooses."""

    __module__ = "repro.power.budgets"

    idle_w: float = 1.0
    read_only: bool = True

    def __post_init__(self) -> None:
        table = {"idle": self.idle_w}
        if self.read_only:
            table = MappingProxyType(table)
        object.__setattr__(self, "watts", table)


class TestWalkerLeaves:
    """Frozen dataclasses of immutables are captured by reference; any
    other frozen object is still walked, refilled and audited."""

    def test_restore_plan_sizes_are_pinned(self):
        # Growth here means new per-machine state the walker must
        # capture and restore on every recycle: make it a leaf (a
        # frozen spec of immutables) or account for it in the docs.
        checkpoint = MachineCheckpoint(
            ServerMachine(config_by_name("CPC1A"), seed=1)
        )
        assert len(checkpoint._dict_plans) == 118
        assert len(checkpoint._refills) == 62
        assert len(checkpoint._slot_plans) == 30

    def test_machine_specs_and_config_are_leaves(self):
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)
        assert _is_immutable(machine.config, set())
        assert _is_immutable(machine.budget, set())
        assert _is_immutable(machine.cores[0].spec, set())
        checkpoint = MachineCheckpoint(machine)
        captured = {id(instance_dict) for instance_dict, _ in checkpoint._dict_plans}
        assert id(vars(machine.budget.core)) not in captured
        assert id(vars(machine.config)) not in captured

    def test_frozen_object_holding_a_list_is_walked_and_restored(self):
        config = config_by_name("CPC1A")
        machine = ServerMachine(config, seed=1)
        log = FrozenLog(entries=[])
        machine._log = log
        assert not _is_immutable(log, set())
        machine.checkpoint()
        log.entries.append(42)  # a run that dirties the frozen object
        machine.run_for(1 * MS)
        machine.recycle(config, 2)
        assert log.entries == []
        assert machine._log is log

    def test_frozen_spec_with_a_plain_dict_table_is_not_a_leaf(self):
        plain, read_only = TableSpec(read_only=False), TableSpec()
        assert not _is_immutable(plain, set())
        assert _is_immutable(read_only, set())
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)
        machine._plain, machine._read_only = plain, read_only
        checkpoint = MachineCheckpoint(machine)
        refilled = {id(original) for _tag, original, _ in checkpoint._refills}
        captured = {id(instance_dict) for instance_dict, _ in checkpoint._dict_plans}
        assert id(plain.watts) in refilled and id(vars(plain)) in captured
        assert id(vars(read_only)) not in captured
        plain.watts["idle"] = 9.0
        checkpoint.restore(1)
        assert plain.watts == {"idle": 1.0}

    def test_unknown_type_inside_a_frozen_object_is_refused(self):
        machine = ServerMachine(config_by_name("CPC1A"), seed=1)
        machine._log = FrozenLog(entries=(bytearray(b"mutable"),))
        with pytest.raises(CheckpointError, match="bytearray"):
            MachineCheckpoint(machine)

    def test_cell_recycle_refuses_a_runtime_of_another_config(self):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="Cshallow",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        runtime = ServerMachine(config_by_name("CPC1A"), seed=1)
        runtime.checkpoint()
        with pytest.raises(ValueError, match="CPC1A"):
            cell.recycle(runtime)


class TestRecordPayload:
    def test_payload_equals_asdict_for_every_scenario(self):
        for name in scenarios.scenario_names():
            qps, preset = scenario_point(name)
            cell = ExperimentSpec(
                workload=name, qps=qps, preset=preset, config="CPC1A",
                seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
            )
            result = run_cell(cell)
            kind, payload = result.result_kind, result.as_dict()
            plain = dataclasses.asdict(result)
            assert kind == "experiment"
            assert payload == plain, name
            assert _canonical(payload) == json.dumps(
                plain, sort_keys=True, separators=(",", ":")
            ), name


def short_grid(rates=(0, 20_000), configs=("Cshallow", "CPC1A"), seeds=(1, 2)):
    points = tuple(
        WorkloadPoint("idle") if qps == 0
        else WorkloadPoint("memcached", qps=float(qps))
        for qps in rates
    )
    return SweepSpec(
        points, configs=configs, seeds=seeds,
        duration_ns=3 * MS, warmup_ns=1 * MS,
    )


class TestSweepSession:
    def test_parallel_serial_and_runner_agree(self):
        spec = short_grid()
        with SweepSession(workers=1) as serial, SweepSession(workers=2) as parallel:
            serial_results = serial.run(spec)
            parallel_results = parallel.run(spec)
        fresh_results = [run_cell(cell) for cell in spec.cells()]
        assert serial_results.results == parallel_results.results
        assert serial_results.results == fresh_results

    def test_session_reuse_across_runs(self):
        spec = short_grid()
        with SweepSession(workers=2) as session:
            first = session.run(spec)
            second = session.run(spec)
        assert first.results == second.results
        assert session.last_run_stats["cells"] == len(spec)

    def test_disk_store_second_run_is_all_hits(self, tmp_path):
        spec = short_grid()
        store = ResultStore(tmp_path / "cache")
        with SweepSession(workers=2) as session:
            first = session.run(spec, store=store)
            assert first.cache_hits == 0
            second = session.run(spec, store=store)
        assert second.cache_hits == len(spec)
        assert second.results == first.results

    def test_on_result_streams_in_cell_order(self, tmp_path):
        spec = short_grid()
        seen = []
        out = tmp_path / "stream.csv"
        with SweepSession(workers=2) as session, StreamingCsvWriter(out) as writer:
            results = session.run(
                spec,
                on_result=lambda cell, result, cached: (
                    seen.append((cell.key(), cached)),
                    writer.write(result, spec=cell),
                ),
            )
        assert [key for key, _cached in seen] == [c.key() for c in results.cells]
        assert not any(cached for _key, cached in seen)
        buffered = tmp_path / "buffered.csv"
        results.write_csv(buffered)
        assert out.read_bytes() == buffered.read_bytes()

    def test_on_result_marks_cache_hits(self):
        spec = short_grid()
        store = MemoryStore()
        with SweepSession(workers=1) as session:
            session.run(spec, store=store)
            flags = []
            session.run(
                spec, store=store,
                on_result=lambda cell, result, cached: flags.append(cached),
            )
        assert flags == [True] * len(spec)

    def test_closed_session_rejects_runs(self):
        for workers in (1, 2):  # serial and parallel paths alike
            session = SweepSession(workers=workers)
            session.close()
            with pytest.raises(RuntimeError, match="closed"):
                session.run(short_grid())

    def test_fully_cached_run_forks_no_pool(self, tmp_path):
        spec = short_grid()
        store = ResultStore(tmp_path / "cache")
        with SweepSession(workers=2) as warm:
            warm.run(spec, store=store)
        with SweepSession(workers=2) as session:
            results = session.run(spec, store=store)
            assert results.cache_hits == len(spec)
            # Nothing was pending, so the session never paid a fork.
            assert session._supervisor is None

    def test_pool_sized_to_pending_cells(self, tmp_path):
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(1,))
        with SweepSession(workers=4) as session:
            session.run(spec)
            assert session._supervisor is None  # one cell runs in-process

    def test_failed_streaming_write_preserves_previous_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        out.write_text("precious,complete,rows\n")
        with pytest.raises(RuntimeError, match="mid-sweep"):
            with StreamingCsvWriter(out) as writer:
                raise RuntimeError("mid-sweep failure")
        assert out.read_text() == "precious,complete,rows\n"
        assert list(tmp_path.glob("*.tmp")) == []
        assert writer.rows == 0

    def test_progress_counts_cache_hits_toward_total(self):
        spec = short_grid()
        store = MemoryStore()
        with SweepSession(workers=1) as session:
            session.run(spec, store=store)
            fired = []
            session.run(spec, store=store, progress=fired.append)
        # Every grid cell reports progress even though nothing was
        # simulated, so a "[n/total]" display reaches its total.
        assert len(fired) == len(spec)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SweepSession(workers=0)


class TestKeyCaching:
    def test_rate_cell_key_is_cached_and_stable(self):
        cell = ExperimentSpec(
            workload="memcached", qps=100.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        assert cell.key() == cell.key()
        assert getattr(cell, "_key", None) == cell.key()

    def test_distinct_trace_contents_get_distinct_keys(self, tmp_path):
        """Trace keys hash file *contents*; two different recordings
        never share a cache entry (the key cache is per cell object,
        consistent with the registry's per-process digest cache)."""
        def cell_for(text: str, name: str) -> ExperimentSpec:
            trace = tmp_path / name
            trace.write_text(text)
            return ExperimentSpec(
                workload="replay", qps=0.0, preset=str(trace),
                config="CPC1A", seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
            )

        short = cell_for("gap_ns,service_ns\n10,5\n20,5\n", "a.csv")
        longer = cell_for("gap_ns,service_ns\n10,5\n20,5\n30,7\n", "b.csv")
        assert short.key() != longer.key()


class TestWorkerStoreShortCircuit:
    def test_existing_record_is_not_resimulated(self, tmp_path):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        key, status, result, build_s, sim_s = _cell_task((cell, str(store.root)))
        assert status == "stored" and result is not None
        # A second worker-side attempt finds the record locally and
        # ships a marker instead of the result.
        key2, status2, result2, *_ = _cell_task((cell, str(store.root)))
        assert (key2, status2, result2) == (key, "hit", None)

    def test_worker_persists_spec_with_record(self, tmp_path):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        _cell_task((cell, str(store.root)))
        record = json.loads((store.root / f"{cell.key()}.json").read_text())
        assert record["spec"]["config"] == "CPC1A"


class TestWorkerExceptions:
    def test_failure_names_the_cell(self, monkeypatch):
        import repro.sweep.session as session_module

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(session_module, "run_cell", boom)
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(5,))
        policy = CellPolicy(max_retries=0, on_exhausted="raise")
        with SweepSession(workers=1, policy=policy) as session:
            with pytest.raises(SweepCellError, match=r"CPC1A/idle/seed5"):
                session.run(spec)

    def test_wrapped_error_keeps_original_message(self, monkeypatch):
        import repro.sweep.session as session_module

        def boom(*args, **kwargs):
            raise ValueError("the original reason")

        monkeypatch.setattr(session_module, "run_cell", boom)
        policy = CellPolicy(max_retries=0, on_exhausted="raise")
        with SweepSession(workers=1, policy=policy) as session:
            with pytest.raises(SweepCellError, match="the original reason"):
                session.run(short_grid(rates=(0,), configs=("CPC1A",), seeds=(1,)))

    def test_default_policy_quarantines_and_completes(self, monkeypatch):
        """A deterministically failing cell is quarantined (with its
        label and attempt history) while the rest of the grid
        completes — the sweep degrades instead of aborting."""
        import repro.sweep.session as session_module

        real_run_cell = session_module.run_cell

        def boom_on_seed5(spec, **kwargs):
            if spec.seed == 5:
                raise RuntimeError("injected failure")
            return real_run_cell(spec, **kwargs)

        monkeypatch.setattr(session_module, "run_cell", boom_on_seed5)
        spec = short_grid(rates=(0,), configs=("CPC1A",), seeds=(1, 5))
        policy = CellPolicy(max_retries=1, retry_backoff_s=0.0)
        with SweepSession(workers=1, policy=policy) as session:
            results = session.run(spec)
        assert len(results) == 1
        assert len(results.quarantined) == 1
        bad = results.quarantined[0]
        assert "seed5" in bad.label
        assert len(bad.failures) == 2  # first attempt + one retry
        assert all("injected failure" in f.detail for f in bad.failures)
        stats = session.last_run_stats
        assert stats["quarantined"] == 1
        assert stats["retries"] == 1


class TestNonRecyclableFallback:
    def test_verdict_is_memoized_per_config(self, monkeypatch):
        """A config whose checkpoint fails is probed once; later cells
        build fresh without re-walking the machine graph."""
        from repro.sweep.session import _runtime_for

        clear_warm_machines()
        attempts = []

        def failing_checkpoint(self):
            attempts.append(1)
            raise CheckpointError("injected")

        monkeypatch.setattr(ServerMachine, "checkpoint", failing_checkpoint)
        spec = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        first = _runtime_for(spec)
        second = _runtime_for(spec)
        assert first is not second  # fresh build per cell
        assert attempts == [1]  # the verdict was remembered
        clear_warm_machines()


class TestRecycledEqualsFresh:
    def test_session_run_matches_fresh_run_cell(self):
        """An in-process session recycles one machine per config slot;
        every result equals a fresh build of the same cell."""
        clear_warm_machines()
        spec = short_grid(rates=(0, 20_000), configs=("CPC1A",), seeds=(1, 2))
        with SweepSession(workers=1) as session:
            recycled = session.run(spec)
        assert recycled.results == [run_cell(cell) for cell in spec.cells()]


class TestAtomicStore:
    def test_no_temp_residue_after_put(self, tmp_path):
        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        _key, _status, result, *_ = _cell_task((cell, str(store.root)))
        store.put(cell.key(), result, spec=cell)
        assert list(store.root.glob("*.tmp")) == []
        assert len(store) == 1

    def test_failed_write_leaves_no_partial_record(self, tmp_path, monkeypatch):
        import repro.sweep.store as store_module

        cell = ExperimentSpec(
            workload="idle", qps=0.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        _key, _status, result, *_ = _cell_task((cell, None))

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.json, "dumps", explode)
        with pytest.raises(OSError):
            store.put(cell.key(), result, spec=cell)
        # Neither a truncated record nor a stray temp file remains,
        # and the key stays a clean miss.
        assert list(store.root.iterdir()) == []
        assert cell.key() not in store

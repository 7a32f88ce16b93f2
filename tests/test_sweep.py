"""The sweep-orchestration subsystem: specs, store, session, aggregation."""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro.api import FleetCell, run_cell
from repro.cli import EXPORT_COLUMNS, main as cli_main
from repro.props import PropertySet, preset_props
from repro.server.stats import EMPTY_SUMMARY
from repro.server.experiment import ExperimentResult, ServerRecord
from repro.sweep import (
    ExperimentSpec,
    MemoryStore,
    MetricStats,
    ResultStore,
    SweepSession,
    SweepSpec,
    WorkloadPoint,
    aggregate_over_seeds,
    duration_for_rate,
    flatten_result,
    memcached_points,
    preset_points,
    warmup_for_duration,
)
from repro.sweep import chaos
from repro.tracing.socwatch import OpportunityEstimate
from repro.units import MS

DATA_DIR = Path(__file__).parent / "data"


def tiny_cell(qps: float = 0.0, config: str = "CPC1A", seed: int = 1) -> ExperimentSpec:
    """A cell cheap enough for unit tests (a few ms of simulated time)."""
    return ExperimentSpec(
        workload="memcached", qps=qps, preset="low", config=config,
        seed=seed, duration_ns=4 * MS, warmup_ns=1 * MS,
    )


class TestSpecExpansion:
    def test_grid_order_is_config_major(self):
        spec = SweepSpec(
            workloads=memcached_points([0, 4_000]),
            configs=("Cshallow", "CPC1A"),
            seeds=(1, 2),
        )
        cells = spec.cells()
        assert len(cells) == len(spec) == 8
        assert [c.config for c in cells] == ["Cshallow"] * 4 + ["CPC1A"] * 4
        assert [c.qps for c in cells[:4]] == [0.0, 0.0, 4_000.0, 4_000.0]
        assert [c.seed for c in cells[:4]] == [1, 2, 1, 2]

    def test_rate_sized_windows(self):
        spec = SweepSpec(
            workloads=memcached_points([0, 4_000, 200_000]),
            configs=("CPC1A",),
        )
        durations = [c.duration_ns for c in spec.cells()]
        assert durations == [duration_for_rate(q) for q in (0, 4_000, 200_000)]
        warmups = [c.warmup_ns for c in spec.cells()]
        assert warmups == [warmup_for_duration(d) for d in durations]

    def test_point_window_overrides_spec(self):
        points = (
            WorkloadPoint("idle", duration_ns=10 * MS, warmup_ns=2 * MS),
            WorkloadPoint("memcached", qps=8_000.0),
        )
        spec = SweepSpec(points, configs=("CPC1A",), duration_ns=50 * MS)
        idle_cell, loaded_cell = spec.cells()
        assert idle_cell.duration_ns == 10 * MS
        assert idle_cell.warmup_ns == 2 * MS
        assert loaded_cell.duration_ns == 50 * MS

    def test_preset_points(self):
        spec = SweepSpec(
            preset_points("mysql", ("low", "high")),
            configs=("Cshallow",),
            duration_ns=20 * MS,
        )
        assert [c.preset for c in spec.cells()] == ["low", "high"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(workloads=(), configs=("CPC1A",))
        with pytest.raises(ValueError):
            SweepSpec(memcached_points([0]), configs=())
        with pytest.raises(ValueError):
            SweepSpec(memcached_points([0]), configs=("CPC1A",), seeds=())
        with pytest.raises(KeyError):
            SweepSpec(memcached_points([0]), configs=("Cwrong",))
        with pytest.raises(KeyError):
            WorkloadPoint("postgres")
        with pytest.raises(KeyError, match="preset"):
            WorkloadPoint("mysql", preset="lwo")
        with pytest.raises(ValueError):
            tiny_cell().__class__(**{**tiny_cell().as_dict(), "duration_ns": 0})

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate seeds"):
            SweepSpec(memcached_points([0]), configs=("CPC1A",), seeds=(1, 2, 2))
        with pytest.raises(ValueError, match="duplicate configs"):
            SweepSpec(memcached_points([0]), configs=("CPC1A", "CPC1A"))
        with pytest.raises(ValueError, match="duplicate workload points"):
            SweepSpec(memcached_points([0, 0]), configs=("CPC1A",))
        # Canonically-equivalent spellings of one cell are also repeats.
        with pytest.raises(ValueError, match="equivalent spellings"):
            SweepSpec(
                (WorkloadPoint("idle"), WorkloadPoint("memcached", qps=0.0)),
                configs=("CPC1A",),
                duration_ns=5 * MS,
            )


class TestCellIdentity:
    def test_key_is_stable_and_content_sensitive(self):
        cell = tiny_cell()
        assert cell.key() == tiny_cell().key()
        assert cell.key() != tiny_cell(seed=2).key()
        assert cell.key() != tiny_cell(qps=4_000).key()
        assert cell.key() != tiny_cell(config="Cshallow").key()

    def test_dict_round_trip(self):
        cell = tiny_cell(qps=4_000)
        assert ExperimentSpec.from_dict(cell.as_dict()) == cell

    def test_key_canonicalizes_equivalent_spellings(self):
        # Rate 0 is the idle server whatever the workload is called,
        # and fields build_workload ignores must not split the cache.
        def cell(**kw):
            base = dict(
                workload="memcached",
                qps=0.0,
                preset="low",
                config="CPC1A",
                seed=1,
                duration_ns=4 * MS,
                warmup_ns=1 * MS,
            )
            return ExperimentSpec(**{**base, **kw})

        assert cell().key() == cell(workload="idle").key()
        assert cell(qps=4_000.0).key() == cell(qps=4_000.0, preset="mid").key()
        assert (
            cell(workload="mysql").key()
            == cell(workload="mysql", qps=9_999.0).key()
        )
        assert cell(workload="mysql").key() != cell(
            workload="mysql", preset="mid"
        ).key()
        assert cell().key() != cell(warmup_ns=2 * MS).key()
        # int and float spellings of one rate share a key.
        assert cell(qps=40_000).key() == cell(qps=40_000.0).key()


def cell_of(kind: str, **fields):
    """A server (``ExperimentSpec``) or fleet cell with ``fields`` set."""
    base = dict(
        workload="memcached", qps=1000.0, preset="low", seed=1,
        duration_ns=2 * MS, warmup_ns=0,
    )
    if kind == "fleet":
        return FleetCell(**{
            **base, "machine": "CPC1A", "n_servers": 2,
            "routing": "round-robin", **fields,
        })
    return ExperimentSpec(**{**base, "config": "CPC1A", **fields})


@pytest.mark.parametrize("kind", ["server", "fleet"])
class TestCellValidation:
    """Both cell kinds check their point when built, as WorkloadPoint
    does, so a bad point never reaches a store key or a worker (these
    only construct cells)."""

    def test_negative_rate_rejected(self, kind):
        with pytest.raises(ValueError, match="offered QPS cannot be negative"):
            cell_of(kind, qps=-5.0)

    def test_unknown_preset_rejected(self, kind):
        with pytest.raises(KeyError, match="preset"):
            cell_of(kind, workload="mysql", preset="lwo")

    def test_missing_trace_rejected(self, kind, tmp_path):
        with pytest.raises(OSError, match="No such file"):
            cell_of(kind, workload="replay", preset=str(tmp_path / "gone.csv"))

    def test_window_and_rate_are_canonical(self, kind):
        with pytest.raises(ValueError, match="duration must be positive"):
            cell_of(kind, duration_ns=0)
        with pytest.raises(ValueError, match="warmup must be non-negative"):
            cell_of(kind, warmup_ns=-1)
        assert cell_of(kind, qps=4000).qps.__class__ is float


def pinned_cells() -> dict:
    """One cell of each key shape, with keys recorded before the shared
    (config, props) resolution replaced per-cell resolution."""
    return {
        "preset": ExperimentSpec(
            workload="memcached", qps=4000.0, preset="low", config="CPC1A",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        ),
        "hybrid": ExperimentSpec(
            workload="memcached", qps=4000.0, preset="low", config="Cshallow",
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
            props=(("cstates.cc1e.enable", "on"), ("timer_tick_hz", 250)),
        ),
        "trace": ExperimentSpec(
            workload="replay", qps=0.0, preset="", config="Cdeep",
            seed=2, duration_ns=3 * MS, warmup_ns=1 * MS,
        ),
        "fleet": FleetCell(
            workload="memcached", qps=20000.0, preset="low", machine="CPC1A",
            n_servers=4, routing="power-aware-pack", seed=1,
            duration_ns=3 * MS, warmup_ns=1 * MS,
            server_props=((), (), (("timer_tick_hz", 250),), ()),
            control="sleepscale",
            control_props=(("fleet.slo_p99_ns", 2_000_000),),
        ),
        "fleet_hybrid": FleetCell(
            workload="idle", qps=0.0, preset="low", machine="Cshallow",
            n_servers=2, routing="round-robin", seed=3,
            duration_ns=2 * MS, warmup_ns=1 * MS,
            props=(("cstates.cc1e.enable", "on"),),
        ),
    }


PINNED_KEYS = {
    "preset": "aa30f20cd88fd379d793cb9e",
    "hybrid": "a56f7e7a314a266a03f8771b",
    "trace": "0668bbf551982ff353581b05",
    # Fleet schema v4 (each server's result is the full record).
    "fleet": "6ac694398a254be5ba5f2aea",
    "fleet_hybrid": "8a54b9909c1b964782c0128c",
}


class TestSharedResolution:
    def test_keys_equal_the_pinned_values(self):
        keys = {name: cell.key() for name, cell in pinned_cells().items()}
        assert keys == PINNED_KEYS

    def test_cells_of_one_pair_share_props_and_config(self):
        spec = SweepSpec(
            (WorkloadPoint("idle"), WorkloadPoint("memcached", qps=2000.0)),
            configs=("Cshallow", "CPC1A"),
            seeds=(1, 2),
            props=((), (("timer_tick_hz", 250),)),
            duration_ns=3 * MS,
        )
        pairs: dict = {}
        for cell in spec.cells():
            pairs.setdefault((cell.config, cell.props), []).append(cell)
        assert len(pairs) == 4
        for cells in pairs.values():
            first = cells[0]
            for cell in cells[1:]:
                assert cell.resolved_props() is first.resolved_props()
                assert cell.build_config() is first.build_config()
        # A prop-less cell uses its preset's set, however it was built.
        assert tiny_cell(seed=1).resolved_props() is preset_props("CPC1A")
        assert tiny_cell(seed=1).build_config() is tiny_cell(seed=2).build_config()

    def test_shared_resolution_matches_a_fresh_one(self):
        from repro.props import apply_props
        from repro.server.configs import config_by_name

        cell = pinned_cells()["hybrid"]
        overrides = dict(cell.props)
        assert cell.build_config() == apply_props("Cshallow", overrides)
        fresh = config_by_name("Cshallow").props().with_overrides(overrides)
        assert cell.resolved_props() == fresh

    def test_pickled_cell_carries_its_key_and_no_property_set(self):
        cell = pinned_cells()["hybrid"]
        key = cell.key()
        cell.resolved_props()
        blob = pickle.dumps(cell)
        assert b"PropertySet" not in blob
        clone = pickle.loads(blob)
        assert vars(clone)["_key"] == key
        assert clone == cell
        assert not any(isinstance(v, PropertySet) for v in vars(clone).values())

    def test_a_registry_change_rebuilds_the_resolutions(self, monkeypatch):
        from repro.props import registry

        cell = pinned_cells()["hybrid"]
        before = cell.resolved_props()
        monkeypatch.setattr(registry, "_generation", registry._generation + 1)
        after = cell.resolved_props()
        assert after is not before and after == before

    def test_hybrid_resolutions_are_bounded(self, monkeypatch):
        from repro.props import pset

        monkeypatch.setattr(pset, "_HYBRIDS_MAX", 2)
        for hz in (100, 200, 300):
            pset.resolve_config("Cshallow", (("timer_tick_hz", hz),))
        assert len(pset._table().hybrids) <= 2


class TestRecordLayout:
    @staticmethod
    def canonical(data) -> str:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def test_put_writes_one_compact_canonical_record(self, tmp_path):
        cell = tiny_cell(qps=4_000)
        store = ResultStore(tmp_path / "cache")
        store.put(cell.key(), run_cell(cell), spec=cell)
        text = (store.root / f"{cell.key()}.json").read_text()
        record = json.loads(text)
        assert text == self.canonical(record)
        blob = self.canonical(record["result"])
        assert record["sha256"] == hashlib.sha256(blob.encode()).hexdigest()
        assert record["spec"] == json.loads(json.dumps(cell.as_dict()))

    def test_indented_record_of_the_previous_writer_verifies_and_hits(
        self, tmp_path
    ):
        cell = pinned_cells()["preset"]
        legacy = DATA_DIR / "store_record_indent1.json"
        assert legacy.read_text().startswith('{\n "key": ')
        store = ResultStore(tmp_path / "cache")
        shutil.copy(legacy, store.root / f"{cell.key()}.json")
        report = store.verify(quarantine=False)
        assert (report["ok"], report["legacy"], report["corrupt"]) == (1, 0, [])
        cached = store.get(cell.key())
        assert store.hits == 1
        fresh = run_cell(cell)
        assert self.canonical(cached.as_dict()) == self.canonical(fresh.as_dict())
        # The new writer's payload and checksum are the old writer's.
        old_record = json.loads(legacy.read_text())
        store.put(cell.key(), fresh, spec=cell)
        record = json.loads((store.root / f"{cell.key()}.json").read_text())
        assert record == old_record

    @pytest.mark.parametrize("config, digest", [
        ("CPC1A", "2af53858e454e2ad02dbf661054be21c0d8f59980ac50c5521d5668aef140ad6"),
        ("Cdeep", "da452eba1759e79b6deaff884113ff8e79aa8cf2e4e01b386b10e75c29ebe293"),
    ])
    def test_experiment_record_text_is_pinned(self, tmp_path, config, digest):
        # sha256 of the whole record file as the writer before the
        # per-server record wrote it (memcached 4K, 3 ms after 1 ms).
        cell = ExperimentSpec(
            workload="memcached", qps=4000.0, preset="low", config=config,
            seed=1, duration_ns=3 * MS, warmup_ns=1 * MS,
        )
        store = ResultStore(tmp_path / "cache")
        store.put(cell.key(), run_cell(cell), spec=cell)
        text = (store.root / f"{cell.key()}.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_fleet_record_of_schema_v3_verifies_and_loads(self, tmp_path):
        # A 2-server CPC1A fleet (memcached 20K, 3 ms after 1 ms) as the
        # v3 writer stored it: its servers lack most of the record.
        legacy = DATA_DIR / "store_record_fleet_v3.json"
        written = json.loads(legacy.read_text())
        store = ResultStore(tmp_path / "cache")
        shutil.copy(legacy, store.root / f"{written['key']}.json")
        report = store.verify(quarantine=False)
        assert (report["ok"], report["legacy"], report["corrupt"]) == (1, 0, [])
        loaded = store.get(written["key"])
        assert store.hits == 1
        # What v3 stored reads back unchanged...
        payload = json.loads(json.dumps(loaded.as_dict()))
        stored_servers = written["result"].pop("servers")
        servers = payload.pop("servers")
        assert payload == written["result"]
        assert [
            {name: server[name] for name in stored}
            for server, stored in zip(servers, stored_servers)
        ] == stored_servers
        # ...and the per-server fields v3 lacked take their defaults.
        added = [f for f in fields(ServerRecord) if f.name not in stored_servers[0]]
        assert [f.name for f in added] == [
            "core_residency", "all_idle_fraction", "socwatch", "idle_histogram",
            "pc1a_entries", "pc1a_exits", "pc1a_mean_exit_ns", "pc1a_max_exit_ns",
            "pc6_entries", "pc6_exits", "core_wakes", "active_after_idle_mean",
            "active_after_idle_dist",
        ]
        for server in loaded.servers:
            for f in added:
                default = f.default_factory() if f.default is MISSING else f.default
                assert getattr(server, f.name) == default, f.name

    def test_fleet_record_reads_back_unchanged(self, tmp_path):
        cell = pinned_cells()["fleet_hybrid"]
        result = run_cell(cell)
        store = ResultStore(tmp_path / "cache")
        store.put(cell.key(), result, spec=cell)
        loaded = store.get(cell.key())
        assert loaded == result
        assert loaded.as_dict() == result.as_dict()
        text = (store.root / f"{cell.key()}.json").read_text()
        assert json.loads(text)["result"] == json.loads(
            json.dumps(result.as_dict())
        )


class TestResultStore:
    def test_disk_round_trip_is_exact(self, tmp_path):
        cell = tiny_cell()
        result = run_cell(cell)
        store = ResultStore(tmp_path / "cache")
        assert store.get(cell.key()) is None
        store.put(cell.key(), result, spec=cell)
        assert cell.key() in store
        assert len(store) == 1
        loaded = store.get(cell.key())
        # Frozen dataclass equality covers every field, including the
        # nested latency/socwatch records and int-keyed histograms.
        assert loaded == result
        assert store.hits == 1 and store.misses == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        cell = tiny_cell()
        store = ResultStore(tmp_path / "cache")
        (store.root / f"{cell.key()}.json").write_text("{ truncated")
        assert store.get(cell.key()) is None
        # The next put overwrites the corrupt record cleanly.
        result = run_cell(cell)
        store.put(cell.key(), result, spec=cell)
        assert store.get(cell.key()) == result

    def test_serialization_restores_int_histogram_keys(self):
        result = _synthetic_result(seed=1, power=30.0)
        round_tripped = ExperimentResult.from_dict(result.as_dict())
        assert round_tripped == result
        assert all(isinstance(k, int) for k in round_tripped.active_after_idle_dist)


class TestRunner:
    def test_parallel_matches_serial(self):
        spec = SweepSpec(
            workloads=(
                WorkloadPoint("idle", duration_ns=3 * MS, warmup_ns=1 * MS),
                WorkloadPoint(
                    "memcached", qps=30_000.0, duration_ns=3 * MS, warmup_ns=1 * MS
                ),
            ),
            configs=("CPC1A",),
            seeds=(1, 2),
        )
        with SweepSession(workers=1) as session:
            serial = session.run(spec)
        with SweepSession(workers=2) as session:
            parallel = session.run(spec)
        assert serial.results == parallel.results

    def test_store_turns_reruns_into_cache_hits(self):
        spec = SweepSpec(
            workloads=(WorkloadPoint("idle", duration_ns=3 * MS, warmup_ns=1 * MS),),
            configs=("Cshallow", "CPC1A"),
        )
        store = MemoryStore()
        with SweepSession(workers=1, store=store) as session:
            first = session.run(spec)
            assert first.cache_hits == 0
            second = session.run(spec)
        assert second.cache_hits == len(spec)
        assert second.results == first.results

    def test_duplicate_cells_simulated_once(self):
        cell = tiny_cell()
        store = MemoryStore()
        with SweepSession(workers=1, store=store) as session:
            results = session.run([cell, cell])
        assert len(results) == 2
        assert results.results[0] == results.results[1]
        assert len(store) == 1
        # Aggregation must not count the shared result twice.
        (agg,) = results.aggregate()
        assert agg.n_seeds == 1
        assert agg.seeds == (cell.seed,)

    def test_select_and_one(self):
        spec = SweepSpec(
            workloads=(
                WorkloadPoint("idle", duration_ns=3 * MS, warmup_ns=1 * MS),
            ),
            configs=("Cshallow", "CPC1A"),
        )
        with SweepSession(workers=1) as session:
            results = session.run(spec)
        assert len(results.select(config="CPC1A")) == 1
        assert results.one(config="CPC1A").config_name == "CPC1A"
        with pytest.raises(LookupError):
            results.one(workload="memcached", qps=99.0)
        with pytest.raises(LookupError):
            results.one()  # two matches

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            SweepSession(workers=0)


def _synthetic_result(
    seed: int,
    power: float,
    qps: float = 1_000.0,
    config: str = "CPC1A",
) -> ExperimentResult:
    """A hand-built result for aggregation tests (no simulation)."""
    return ExperimentResult(
        config_name=config,
        workload_name="memcached",
        seed=seed,
        duration_ns=10 * MS,
        offered_qps=qps,
        requests_completed=10,
        achieved_qps=qps,
        package_power_w=power,
        dram_power_w=5.0,
        core_residency={"CC0": 0.1, "CC1": 0.9},
        package_residency={"PC1A": 0.5},
        utilization=0.1,
        all_idle_fraction=0.5,
        socwatch=OpportunityEstimate(0.5, 0.4, 10, 2, 1000.0),
        idle_histogram={"<20us": 1.0},
        latency=EMPTY_SUMMARY,
        active_after_idle_dist={1: 0.75, 2: 0.25},
    )


class TestAggregation:
    def test_mean_and_ci_over_seeds(self):
        results = [
            _synthetic_result(seed=s, power=p)
            for s, p in ((1, 29.0), (2, 31.0), (3, 30.0))
        ]
        (agg,) = aggregate_over_seeds(results)
        assert agg.n_seeds == 3
        assert agg.seeds == (1, 2, 3)
        stats = agg["total_power_w"]
        assert stats.mean == pytest.approx(35.0)  # +5 W DRAM
        assert stats.std == pytest.approx(1.0)
        assert stats.ci95 == pytest.approx(1.96 / 3**0.5)

    def test_single_seed_has_zero_spread(self):
        (agg,) = aggregate_over_seeds([_synthetic_result(seed=1, power=30.0)])
        assert agg["total_power_w"].ci95 == 0.0
        assert "±" not in str(agg["total_power_w"])

    def test_groups_split_by_cell_not_seed(self):
        results = [
            _synthetic_result(seed=1, power=30.0, config="CPC1A"),
            _synthetic_result(seed=2, power=31.0, config="CPC1A"),
            _synthetic_result(seed=1, power=50.0, config="Cshallow"),
        ]
        aggregates = aggregate_over_seeds(results)
        assert [a.config for a in aggregates] == ["CPC1A", "Cshallow"]
        assert aggregates[0].n_seeds == 2
        assert aggregates[1].n_seeds == 1

    def test_cells_keep_colliding_presets_apart(self):
        # Two presets of one workload at the same offered rate and
        # duration must never fold into one mean.
        results = [
            _synthetic_result(seed=1, power=30.0),
            _synthetic_result(seed=1, power=40.0),
        ]
        cells = [
            ExperimentSpec(
                workload="mysql",
                qps=1_000.0,
                preset=preset,
                config="CPC1A",
                seed=1,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for preset in ("low", "mid")
        ]
        aggregates = aggregate_over_seeds(results, cells=cells)
        assert [a.preset for a in aggregates] == ["low", "mid"]
        assert [a.n_seeds for a in aggregates] == [1, 1]

    def test_flatten_result_columns(self):
        row = flatten_result(_synthetic_result(seed=3, power=30.0))
        assert row["seed"] == 3
        assert row["total_power_w"] == 35.0
        assert row["pc1a_residency"] == 0.5

    def test_seed_only_differences_collapse_to_one_cell(self):
        results = [
            _synthetic_result(seed=s, power=p)
            for s, p in ((1, 30.0), (2, 32.0), (3, 31.0))
        ]
        cells = [
            ExperimentSpec(
                workload="memcached",
                qps=1_000.0,
                preset="low",
                config="CPC1A",
                seed=s,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for s in (1, 2, 3)
        ]
        (agg,) = aggregate_over_seeds(results, cells=cells)
        assert agg.seeds == (1, 2, 3)
        assert agg.n_seeds == 3

    def test_scenario_differences_do_not_collapse(self):
        # nginx and memcached at the same rate/seed/window are distinct
        # physical experiments; their results carry distinct workload
        # names and must never fold into one mean.
        results = [
            _synthetic_result(seed=1, power=30.0),
            _synthetic_result(seed=1, power=40.0),
        ]
        object.__setattr__(results[1], "workload_name", "nginx")
        cells = [
            ExperimentSpec(
                workload=name,
                qps=1_000.0,
                preset="low",
                config="CPC1A",
                seed=1,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for name in ("memcached", "nginx")
        ]
        aggregates = aggregate_over_seeds(results, cells=cells)
        assert [a.workload for a in aggregates] == ["memcached", "nginx"]
        assert [a.n_seeds for a in aggregates] == [1, 1]

    def test_trace_differences_do_not_collapse(self):
        # Two replay cells over different trace files share the
        # workload label and rate; the trace (spec-side preset) must
        # keep their aggregates apart.
        results = [
            _synthetic_result(seed=1, power=30.0),
            _synthetic_result(seed=1, power=45.0),
        ]
        for result in results:
            object.__setattr__(result, "workload_name", "replay")
        cells = [
            ExperimentSpec(
                workload="replay",
                qps=0.0,
                preset=trace,
                config="CPC1A",
                seed=1,
                duration_ns=10 * MS,
                warmup_ns=1 * MS,
            )
            for trace in ("tests/data/example_trace.csv", "")
        ]
        aggregates = aggregate_over_seeds(results, cells=cells)
        assert len(aggregates) == 2
        assert [a.n_seeds for a in aggregates] == [1, 1]
        assert (
            aggregates[0]["total_power_w"].mean != aggregates[1]["total_power_w"].mean
        )


class TestMetricStats:
    def test_single_value_is_pinned_to_zero_spread(self):
        stats = MetricStats.from_values([42.5])
        assert stats == MetricStats(mean=42.5, std=0.0, ci95=0.0, n=1)
        assert str(stats) == "42.5"

    def test_two_values_ci_math_is_pinned(self):
        stats = MetricStats.from_values([10.0, 14.0])
        assert stats.n == 2
        assert stats.mean == pytest.approx(12.0)
        # ddof=1: var = ((10-12)^2 + (14-12)^2) / 1 = 8.
        assert stats.std == pytest.approx(8.0 ** 0.5)
        assert stats.ci95 == pytest.approx(1.96 * 8.0 ** 0.5 / 2 ** 0.5)
        assert "±" in str(stats)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            MetricStats.from_values([])


class TestProgressThrottle:
    def test_emits_first_stride_and_final_lines_only(self):
        import io

        from repro.cli import ThrottledProgress

        stream = io.StringIO()
        progress = ThrottledProgress(
            total=250, stream=stream, min_interval_s=3600.0, stride=100
        )
        cell = tiny_cell()
        for _ in range(250):
            progress(cell)
        lines = stream.getvalue().splitlines()
        # Time never elapses, so only the first cell, every 100th and
        # the final cell get a line — not one line per cell.
        assert progress.count == 250
        assert len(lines) == 4
        assert lines[0].startswith("[1/250] ")
        assert lines[-1].startswith("[250/250] ")

    def test_unthrottled_interval_emits_every_cell(self):
        import io

        from repro.cli import ThrottledProgress

        stream = io.StringIO()
        progress = ThrottledProgress(
            total=5, stream=stream, min_interval_s=0.0, stride=1
        )
        for _ in range(5):
            progress(tiny_cell())
        assert len(stream.getvalue().splitlines()) == 5

    def test_cli_no_progress_stays_silent(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli_main([
            "sweep", "--rates", "0", "--configs", "CPC1A", "--seeds", "1",
            "--duration-ms", "4", "--warmup-ms", "1", "--workers", "1",
            "--no-progress", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""

    def test_cli_progress_reports_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert cli_main([
            "sweep", "--rates", "0,15000", "--configs", "CPC1A",
            "--seeds", "1", "--duration-ms", "4", "--warmup-ms", "1",
            "--workers", "1", "--progress", "--out", str(out),
        ]) == 0
        err = capsys.readouterr().err
        assert "[2/2]" in err


class TestCliSweep:
    def test_sweep_command_parallel_then_cached(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        argv = [
            "sweep", "--rates", "0,20000", "--configs", "CPC1A",
            "--seeds", "1,2", "--duration-ms", "5", "--warmup-ms", "1",
            "--workers", "2", "--store", str(tmp_path / "cache"),
            "--out", str(out),
        ]
        assert cli_main(argv) == 0
        output = capsys.readouterr().out
        assert "swept 4 cells" in output
        assert "0 cache hit(s)" in output
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        assert lines[0].startswith("offered_qps,config,workload,preset,seed,")

        assert cli_main(argv) == 0
        assert "4 cache hit(s)" in capsys.readouterr().out

    def test_sweep_preset_workload_keeps_presets_apart(self, tmp_path, capsys):
        out = tmp_path / "mysql.csv"
        assert cli_main([
            "sweep", "--workload", "mysql", "--presets", "low,mid",
            "--configs", "CPC1A", "--seeds", "1", "--duration-ms", "5",
            "--warmup-ms", "1", "--workers", "1", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        presets = [line.split(",")[3] for line in lines[1:]]
        assert presets == ["low", "mid"]
        # The summary table labels each preset's row distinctly.
        output = capsys.readouterr().out
        assert "mysql:low" in output and "mysql:mid" in output

    def test_export_preset_workload_keeps_one_row_per_rate(self, tmp_path, capsys):
        # mysql ignores the rate, so the rates are one physical cell;
        # export must still emit the historical one-row-per-rate CSV
        # (simulated once) instead of rejecting the grid.
        out = tmp_path / "mysql_export.csv"
        assert cli_main([
            "export", "--workload", "mysql", "--rates", "4000,10000",
            "--configs", "CPC1A", "--duration-ms", "5", "--warmup-ms", "1",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert lines[1].startswith("4000.0,CPC1A,")
        assert lines[2].startswith("10000.0,CPC1A,")
        # Identical observables: same experiment behind both labels.
        assert lines[1].split(",")[2:] == lines[2].split(",")[2:]

    def test_export_through_runner_keeps_columns(self, tmp_path, capsys):
        out = tmp_path / "export.csv"
        assert cli_main([
            "export", "--rates", "0,20000", "--configs", "CPC1A",
            "--duration-ms", "5", "--warmup-ms", "1", "--workers", "2",
            "--out", str(out),
        ]) == 0
        header = out.read_text().splitlines()[0]
        assert header == (
            "offered_qps,config,utilization,all_idle_fraction,"
            "pc1a_residency,pc6_residency,package_power_w,dram_power_w,"
            "total_power_w,mean_latency_us,p99_latency_us,pc1a_exits,"
            "requests_completed"
        )

    def test_export_quarantined_cells_fail_the_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every attempt faults, so both cells exhaust the default retry
        # budget: the run must say so instead of writing a short CSV.
        monkeypatch.setenv(chaos.ENV_VAR, "seed=3,fault=1.0")
        out = tmp_path / "export.csv"
        assert cli_main([
            "export", "--rates", "0,8000", "--configs", "CPC1A",
            "--duration-ms", "5", "--warmup-ms", "1", "--no-progress",
            "--out", str(out),
        ]) == 1
        assert out.read_text().splitlines() == [",".join(EXPORT_COLUMNS)]
        report = json.loads(
            (tmp_path / "export.csv.quarantine.json").read_text()
        )
        assert [
            (cell["label"], cell["attempts"]) for cell in report["quarantined"]
        ] == [("CPC1A/idle/seed0", 4), ("CPC1A/memcached@8000/seed0", 4)]
        assert "2 cell(s) quarantined" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "fleet"])
    def test_empty_presets_are_rejected(self, command, tmp_path):
        with pytest.raises(
            SystemExit, match="--presets must list at least one preset"
        ):
            cli_main([
                command, "--workload", "mysql", "--presets", "",
                "--out", str(tmp_path / "grid.csv"),
            ])

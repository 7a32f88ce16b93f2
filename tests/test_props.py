"""The platform-property registry: typed knobs, property sets, keys.

Covers the registry's pepc-style parsing/validation, the frozen
:class:`PropertySet` identity object, preset canonicalization via
:func:`apply_props`, and the acceptance pin of this layer: a named
preset and its explicit property-set spelling share one cache key.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import run_cell
from repro.cli import main as cli_main
from repro.fleet.routing import ROUTING_POLICIES
from repro.props import (
    PropertyError,
    PropertySet,
    all_props,
    apply_props,
    derived_config_name,
    fleet_props,
    get_prop,
    machine_props,
    preset_name_for,
    preset_names,
    preset_props,
    register_prop,
)
from repro.server.configs import config_by_name
from repro.server.dispatch import POLICIES as DISPATCH_POLICIES
from repro.sweep import (
    ExperimentSpec,
    ResultStore,
    SweepSpec,
    WorkloadPoint,
    config_axis_label,
    memcached_points,
    merge_props,
    normalize_props,
)
from repro.units import MS


def tiny_spec(config: str = "CPC1A", **overrides) -> ExperimentSpec:
    base = dict(
        workload="memcached", qps=20_000.0, preset="low", config=config,
        seed=1, duration_ns=4 * MS, warmup_ns=1 * MS,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRegistry:
    def test_registered_property_names_are_pinned(self):
        assert [p.name for p in all_props()] == [
            "cstates.cc1.enable",
            "cstates.cc1e.enable",
            "cstates.cc6.enable",
            "dispatch_policy",
            "fleet.control",
            "fleet.control_period_ns",
            "fleet.dispatch_latency_ns",
            "fleet.gate_dram_ns",
            "fleet.gate_iolink_ns",
            "fleet.gate_nic_ns",
            "fleet.n_servers",
            "fleet.pack_watermark",
            "fleet.park_boot_ns",
            "fleet.park_boot_w",
            "fleet.park_drain_ns",
            "fleet.routing",
            "fleet.slo_p99_ns",
            "governor",
            "network_latency_ns",
            "package_policy",
            "pstate.nominal",
            "pstate.table",
            "soc.core_freq_ghz",
            "soc.n_cores",
            "tick_mode",
            "timer_tick_hz",
        ]

    def test_scopes_partition_the_registry(self):
        machine = {p.name for p in machine_props()}
        fleet = {p.name for p in fleet_props()}
        assert not machine & fleet
        assert machine | fleet == {p.name for p in all_props()}
        assert all(name.startswith("fleet.") for name in fleet)

    def test_every_property_carries_a_doc(self):
        assert all(p.doc for p in all_props())

    def test_unknown_name_gets_did_you_mean(self):
        with pytest.raises(PropertyError, match="did you mean 'timer_tick_hz'"):
            get_prop("timer_tick")

    def test_case_insensitive_suggestion(self):
        with pytest.raises(PropertyError, match="did you mean 'governor'"):
            get_prop("Governor")

    @pytest.mark.parametrize("raw,expected", [
        ("on", True), ("off", False), ("TRUE", True), ("False", False),
        ("1", True), ("0", False), ("enable", True), ("no", False),
    ])
    def test_boolean_spellings(self, raw, expected):
        assert get_prop("cstates.cc6.enable").parse(raw) is expected

    def test_bad_boolean_spelling(self):
        with pytest.raises(PropertyError, match="bad boolean"):
            get_prop("cstates.cc6.enable").parse("maybe")

    def test_bool_is_not_an_integer(self):
        # True is not a tick rate: pepc-style strictness.
        with pytest.raises(PropertyError, match="expected an integer"):
            get_prop("timer_tick_hz").validate(True)

    def test_integer_parse_and_range(self):
        prop = get_prop("timer_tick_hz")
        assert prop.parse("250") == 250
        with pytest.raises(PropertyError, match="below the minimum 0"):
            prop.parse("-1")
        with pytest.raises(PropertyError, match="above the maximum 10000"):
            prop.parse("20000")
        with pytest.raises(PropertyError, match="not an integer"):
            prop.parse("2.5")

    def test_range_errors_render_full_integers(self):
        # 10000000, not 1e+07: the bound must be pasteable back in.
        with pytest.raises(PropertyError, match="maximum 10000000"):
            get_prop("network_latency_ns").parse(str(10 ** 8))

    def test_float_accepts_and_normalizes_ints(self):
        value = get_prop("soc.core_freq_ghz").validate(2)
        assert value == 2.0 and isinstance(value, float)

    def test_choices_rejection_lists_the_choices(self):
        with pytest.raises(PropertyError, match="use one of: shallow, menu"):
            get_prop("governor").parse("ondemand")

    def test_allowed_rendering(self):
        assert get_prop("network_latency_ns").allowed() == "0..10000000"
        assert get_prop("cstates.cc1.enable").allowed() == "on|off"
        assert get_prop("package_policy").allowed() == "none|pc6|pc1a"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(PropertyError, match="duplicate property"):
            register_prop(
                "timer_tick_hz", ptype=int, scope="machine",
                default=0, doc="dup",
            )

    def test_fleet_routing_choices_track_the_routing_table(self):
        # builtin.py hardcodes these to avoid an import cycle; this pin
        # fails if a routing policy is added without updating the
        # registry row.
        assert get_prop("fleet.routing").choices == ROUTING_POLICIES

    def test_dispatch_policy_choices_track_the_dispatch_table(self):
        assert get_prop("dispatch_policy").choices == DISPATCH_POLICIES

    def test_fleet_control_choices_track_the_controller_table(self):
        from repro.control.controllers import CONTROL_POLICIES

        assert get_prop("fleet.control").choices == CONTROL_POLICIES

    def test_pstate_choices_track_the_ladder_registry(self):
        from repro.soc.pstates import PSTATE_NAMES, PSTATE_TABLE_NAMES

        assert get_prop("pstate.table").choices == PSTATE_TABLE_NAMES
        assert get_prop("pstate.nominal").choices == PSTATE_NAMES


class TestPropertySet:
    def test_complete_and_sorted(self):
        ps = preset_props("Cshallow")
        assert len(ps) == sum(1 for _ in machine_props())
        assert list(ps) == sorted(ps)

    def test_incomplete_rejected(self):
        with pytest.raises(PropertyError, match="incomplete property set"):
            PropertySet({"governor": "shallow"})

    def test_non_machine_extras_rejected(self):
        values = preset_props("Cshallow").as_dict()
        values["fleet.n_servers"] = 2
        with pytest.raises(PropertyError, match="not machine properties"):
            PropertySet(values)

    def test_immutable(self):
        ps = preset_props("Cshallow")
        with pytest.raises(AttributeError, match="immutable"):
            ps.anything = 1

    def test_build_order_does_not_matter(self):
        ps = preset_props("CPC1A")
        shuffled = PropertySet(dict(reversed(list(ps.items()))))
        assert shuffled == ps
        assert hash(shuffled) == hash(ps)
        assert shuffled.content_hash() == ps.content_hash()

    def test_pickle_round_trip(self):
        ps = preset_props("CPC1A")
        clone = pickle.loads(pickle.dumps(ps))
        assert clone == ps and clone.content_hash() == ps.content_hash()

    def test_fleet_override_rejected(self):
        with pytest.raises(PropertyError, match="fleet-scoped"):
            preset_props("Cshallow").with_overrides({"fleet.n_servers": 4})

    def test_config_round_trips_through_the_set(self):
        for name in preset_names():
            config = config_by_name(name)
            ps = config.props()
            assert ps == PropertySet.from_config(config)
            assert PropertySet.from_config(ps.to_config(name)) == ps

    def test_presets_are_distinct(self):
        hashes = {preset_props(n).content_hash() for n in preset_names()}
        assert len(hashes) == len(preset_names()) >= 3


class TestApplyProps:
    def test_explicit_spelling_recovers_the_preset_name(self):
        hybrid = apply_props("Cshallow", {"package_policy": "pc1a"})
        assert hybrid.name == "CPC1A"
        assert hybrid == config_by_name("CPC1A")

    def test_no_overrides_returns_the_base(self):
        assert apply_props("CPC1A").name == "CPC1A"

    def test_derived_name_is_sorted_and_rendered(self):
        hybrid = apply_props(
            "Cshallow", {"timer_tick_hz": "250", "cstates.cc1e.enable": "on"}
        )
        assert hybrid.name == "Cshallow+cstates.cc1e.enable=on+timer_tick_hz=250"
        assert hybrid.timer_tick_hz == 250

    def test_preset_name_for(self):
        assert preset_name_for(preset_props("Cdeep")) == "Cdeep"
        tickful = preset_props("Cdeep").with_overrides({"timer_tick_hz": 100})
        assert preset_name_for(tickful) is None
        assert derived_config_name("Cdeep", tickful) == "Cdeep+timer_tick_hz=100"

    def test_cross_field_constraints_still_apply(self):
        # PC1A forbids CC6: the hybrid builder runs the config's own
        # __post_init__, so invalid combinations fail loudly.
        with pytest.raises(ValueError):
            apply_props("CPC1A", {"cstates.cc6.enable": "on"})

    def test_bad_base_type_rejected(self):
        with pytest.raises(TypeError, match="config name or MachineConfig"):
            apply_props(42)


class TestNormalizeProps:
    def test_accepts_dicts_and_pair_lists(self):
        as_dict = normalize_props({"timer_tick_hz": "250"})
        as_pairs = normalize_props([["timer_tick_hz", 250]])
        assert as_dict == as_pairs == (("timer_tick_hz", 250),)

    def test_sorted_canonical_order(self):
        pairs = normalize_props({"timer_tick_hz": 100, "governor": "menu"})
        assert pairs == (("governor", "menu"), ("timer_tick_hz", 100))

    def test_fleet_scope_rejected(self):
        with pytest.raises(ValueError, match="fleet-scoped"):
            normalize_props({"fleet.n_servers": 4})

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate property override"):
            normalize_props([("governor", "menu"), ("governor", "shallow")])

    def test_merge_extra_wins(self):
        base = normalize_props({"timer_tick_hz": 100, "governor": "menu"})
        extra = normalize_props({"timer_tick_hz": 250})
        assert merge_props(base, extra) == (
            ("governor", "menu"), ("timer_tick_hz", 250),
        )

    def test_axis_label(self):
        assert config_axis_label("Cshallow", ()) == "Cshallow"
        pairs = normalize_props({"cstates.cc1e.enable": True})
        label = config_axis_label("Cshallow", pairs)
        assert label == "Cshallow+cstates.cc1e.enable=on"


class TestSpecKeys:
    def test_preset_and_explicit_spelling_share_a_key(self):
        # The PR's acceptance pin: config="CPC1A" and its property
        # spelling hash to the same cache entry (schema v3).
        preset = tiny_spec(config="CPC1A")
        explicit = tiny_spec(
            config="Cshallow", props={"package_policy": "pc1a"}
        )
        assert preset.key() == explicit.key()
        assert preset.label() != explicit.label()

    def test_props_change_the_key(self):
        assert tiny_spec().key() != tiny_spec(
            props={"timer_tick_hz": 250}
        ).key()

    def test_default_valued_override_is_a_no_op_for_the_key(self):
        assert tiny_spec().key() == tiny_spec(
            props={"timer_tick_hz": 0}
        ).key()

    def test_json_round_trip_preserves_props_and_key(self):
        spec = tiny_spec(props={"timer_tick_hz": 250})
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone == spec
        assert clone.key() == spec.key()

    def test_legacy_schema2_spec_dict_decodes(self):
        # Records written before the props axis carry no "props" key.
        legacy = tiny_spec().as_dict()
        del legacy["props"]
        spec = ExperimentSpec.from_dict(legacy)
        assert spec.props == ()
        assert spec.key() == tiny_spec().key()

    def test_pickle_round_trip_preserves_cached_resolution(self):
        spec = tiny_spec(props={"timer_tick_hz": 250})
        spec.key()  # populate the cached PropertySet before pickling
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.key() == spec.key()

    def test_unknown_property_fails_at_construction(self):
        with pytest.raises(PropertyError, match="did you mean"):
            tiny_spec(props={"timer_tickhz": 250})

    def test_invalid_hybrid_fails_at_construction(self):
        with pytest.raises(ValueError):
            tiny_spec(config="CPC1A", props={"cstates.cc6.enable": "on"})


class TestSweepGrid:
    def test_props_axis_multiplies_the_grid(self):
        spec = SweepSpec(
            workloads=memcached_points([0]),
            configs=("Cshallow",),
            seeds=(1,),
            props=((), {"timer_tick_hz": 250}),
        )
        assert len(spec) == len(spec.cells()) == 2
        assert [c.props for c in spec.cells()] == [
            (), (("timer_tick_hz", 250),),
        ]

    def test_duplicate_props_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate property override sets"):
            SweepSpec(
                workloads=memcached_points([0]),
                configs=("Cshallow",),
                props=({"timer_tick_hz": "250"}, (("timer_tick_hz", 250),)),
            )

    def test_equivalent_spellings_across_configs_rejected(self):
        # Cshallow + pc1a *is* CPC1A: listing both would double-weight
        # one physical experiment.
        with pytest.raises(ValueError, match="equivalent spellings"):
            SweepSpec(
                workloads=memcached_points([0]),
                configs=("CPC1A", "Cshallow"),
                props=({"package_policy": "pc1a"},),
            )

    def test_point_props_win_over_the_axis(self):
        point = WorkloadPoint(
            "memcached", qps=0.0, props={"timer_tick_hz": 100}
        )
        spec = SweepSpec(
            workloads=(point,),
            configs=("Cshallow",),
            props=({"timer_tick_hz": 250, "governor": "menu"},),
        )
        assert spec.cells()[0].props == (
            ("governor", "menu"), ("timer_tick_hz", 100),
        )

    def test_store_round_trips_a_props_record(self, tmp_path):
        spec = tiny_spec(config="Cshallow", props={"timer_tick_hz": 250},
                         qps=0.0)
        result = run_cell(spec)
        assert result.config_name == "Cshallow+timer_tick_hz=250"
        store = ResultStore(tmp_path)
        store.put(spec.key(), result, spec)
        assert store.get(spec.key()) == result
        record = json.loads((tmp_path / f"{spec.key()}.json").read_text())
        assert ExperimentSpec.from_dict(record["spec"]) == spec

    def test_legacy_record_without_spec_props_still_hits(self, tmp_path):
        spec = tiny_spec(qps=0.0)
        result = run_cell(spec)
        store = ResultStore(tmp_path)
        store.put(spec.key(), result, spec)
        path = tmp_path / f"{spec.key()}.json"
        record = json.loads(path.read_text())
        del record["spec"]["props"]  # schema-2 era record
        path.write_text(json.dumps(record))
        assert store.get(spec.key()) == result


class TestCliProps:
    def test_props_list_matches_golden(self, capsys):
        assert cli_main(["props", "list"]) == 0
        golden = "tests/data/props_list_golden.txt"
        with open(golden) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_props_info_shows_per_preset_values(self, capsys):
        assert cli_main(["props", "info", "timer_tick_hz"]) == 0
        out = capsys.readouterr().out
        assert "0..10000" in out
        for preset in preset_names():
            assert f"value in {preset}" in out

    def test_props_info_unknown_exits_with_suggestion(self):
        with pytest.raises(SystemExit, match="did you mean 'timer_tick_hz'"):
            cli_main(["props", "info", "timer_tick"])

    def test_sweep_set_bad_value_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main([
                "sweep", "--rates", "0", "--configs", "Cshallow",
                "--set", "timer_tick_hz=nope",
                "--out", str(tmp_path / "grid.csv"),
            ])

    def test_sweep_set_fleet_property_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="fleet"):
            cli_main([
                "sweep", "--rates", "0", "--configs", "Cshallow",
                "--set", "fleet.n_servers=4",
                "--out", str(tmp_path / "grid.csv"),
            ])

    def test_property_grid_serial_matches_parallel_and_caches(
        self, tmp_path, capsys
    ):
        def argv(workers, out, store):
            return [
                "sweep", "--rates", "0", "--configs", "Cshallow",
                "--set", "timer_tick_hz=0,250", "--seeds", "1",
                "--duration-ms", "4", "--warmup-ms", "1",
                "--workers", str(workers), "--no-progress",
                "--store", str(tmp_path / store),
                "--out", str(tmp_path / out),
            ]

        assert cli_main(argv(2, "parallel.csv", "cache")) == 0
        assert "swept 2 cells" in capsys.readouterr().out
        assert cli_main(argv(1, "serial.csv", "cache2")) == 0
        capsys.readouterr()
        parallel = (tmp_path / "parallel.csv").read_bytes()
        assert parallel == (tmp_path / "serial.csv").read_bytes()
        assert b"Cshallow+timer_tick_hz=250" in parallel

        # Re-running against the first store is all cache hits.
        assert cli_main(argv(2, "parallel2.csv", "cache")) == 0
        assert "2 cache hit(s)" in capsys.readouterr().out
        assert (tmp_path / "parallel2.csv").read_bytes() == parallel

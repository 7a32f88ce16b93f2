"""The fleet request path: block-served draws, the open-loop arrival
driver, method-form routing and the phase-scoped control plane.

Each of these is a speed change that must not move a single value, so
the tests pin results recorded before the change (event-stream digests,
fleet rows, plane counters) or check against a straightforward
reference implementation.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    ClusterConfig,
    FleetMachine,
    flatten_fleet_result,
    run_fleet_experiment,
)
from repro.fleet.routing import POLICY_FUNCTIONS
from repro.fleet.state import FleetState
from repro.props import apply_props
from repro.scenarios import build
from repro.server.configs import cpc1a
from repro.server.machine import ServerMachine
from repro.sim.engine import RNG_BLOCK, Simulator
from repro.soc.cpu import CoreError
from repro.units import MS
from repro.workloads.base import Request
from repro.workloads.upi_traffic import CompositeWorkload, UpiSnoopTraffic

#: Bounds spanning numpy's 32-bit (buffered) and 64-bit draw paths.
BOUNDS = (
    *(1, 2, 3, 7, 10, 64, 1000),
    *(2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62),
)


class TestNumpyBlockProperty:
    """``integers(n, size=k)`` is k scalar draws: values and end state.

    :meth:`Simulator.randbelow` relies on this; a numpy release that
    breaks it must fail here, loudly, before any result moves.
    """

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("k", (1, 5, RNG_BLOCK, RNG_BLOCK + 1))
    @pytest.mark.parametrize("pre_draws", (0, 1))
    def test_block_equals_scalar_draws(self, bound, k, pre_draws):
        block_rng = np.random.default_rng(2024)
        scalar_rng = np.random.default_rng(2024)
        # One odd 32-bit draw first leaves half a 64-bit word buffered.
        for rng in (block_rng, scalar_rng):
            for _ in range(pre_draws):
                rng.integers(10)
        block = block_rng.integers(bound, size=k).tolist()
        scalars = [int(scalar_rng.integers(bound)) for _ in range(k)]
        assert block == scalars
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


#: One step of the mixed-draw program: a run of same-bound picks, a
#: direct generator draw, or a reset.
_STEP = st.one_of(
    st.tuples(
        st.just("below"), st.sampled_from(BOUNDS), st.integers(1, 2 * RNG_BLOCK + 3)
    ),
    st.tuples(st.just("random"), st.just(0), st.integers(1, 3)),
    st.tuples(st.just("integers"), st.sampled_from(BOUNDS), st.integers(1, 3)),
    st.tuples(st.just("reset"), st.integers(0, 2**32), st.just(1)),
)


class TestRandbelowBlocks:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32), program=st.lists(_STEP, max_size=12))
    def test_stream_matches_plain_scalar_draws(self, seed, program):
        sim = Simulator(seed)
        reference = np.random.default_rng(seed)
        for op, arg, count in program:
            if op == "below":
                got = [sim.randbelow(arg) for _ in range(count)]
                want = [int(reference.integers(arg)) for _ in range(count)]
            elif op == "random":
                got = [sim.rng.random() for _ in range(count)]
                want = [reference.random() for _ in range(count)]
            elif op == "integers":
                got = [int(sim.rng.integers(arg)) for _ in range(count)]
                want = [int(reference.integers(arg)) for _ in range(count)]
            else:
                sim.reset(arg)
                reference = np.random.default_rng(arg)
                continue
            assert got == want, (op, arg, count)
        assert sim.rng.bit_generator.state == reference.bit_generator.state

    def test_the_first_draw_starts_a_block(self):
        sim = Simulator(5)
        sim.randbelow(10)
        assert sim._block_bound == 10 and sim._block_pos == 1
        # Reading the generator rewinds it and turns blocks off.
        state = sim.rng.bit_generator.state
        reference = np.random.default_rng(5)
        reference.integers(10)
        assert state == reference.bit_generator.state
        assert sim._block_bound is None and not sim._blocks_on

    def test_a_held_generator_stays_in_step(self):
        sim = Simulator(5)
        reference = np.random.default_rng(5)
        held = sim.rng
        for _ in range(RNG_BLOCK + 3):
            assert sim.randbelow(10) == int(reference.integers(10))
            assert held.random() == reference.random()
        assert sim._block_state == {}

    def test_a_second_bound_turns_blocks_off_until_reset(self):
        sim = Simulator(5)
        reference = np.random.default_rng(5)
        for bound in (10, 10, 8, 10, 10, 6):
            assert sim.randbelow(bound) == int(reference.integers(bound))
        # One rewind at the 8, single draws after it.
        assert not sim._blocks_on and sim._block_state == {}
        sim.reset()
        sim.randbelow(10)
        assert sim._blocks_on and sim._block_bound == 10

    def test_an_idle_machine_takes_no_snapshot(self):
        machine = ServerMachine(cpc1a(), seed=5)
        machine.run_for(2 * MS)
        assert machine.sim._block_state == {} and machine.sim._block == []


def _event_digest(
    config: str, workload, until_ns: int, props: tuple = ()
) -> tuple[int, str, int]:
    """(events, digest of every dispatched (time, seq), completions).

    ``props`` are property overrides on top of the ``config`` preset.
    """
    machine = ServerMachine(apply_props(config, dict(props)), seed=7)
    workload.start(machine.sim, machine)
    sim = machine.sim
    digest = hashlib.sha256()
    events = 0
    while True:
        time_ns = sim.peek()
        if time_ns is None or time_ns > until_ns:
            break
        _, seq, _ = sim._queue[0]
        digest.update(f"{time_ns}:{seq}\n".encode())
        sim.step()
        events += 1
    return events, digest.hexdigest()[:16], machine.requests_completed


#: (config, scenario, qps, preset, window in ms, (events, digest,
#: completions)). The Cdeep window holds 20 PC6 cycles.
_STREAM_PINS = [
    ("CPC1A", "memcached", 40_000, "low", 4, (1645, "7b0a15c5e2e4ef7a", 182)),
    ("CPC1A", "memcached-diurnal", 60_000, "low", 4, (1980, "a1ed03997a64922e", 119)),
    ("CPC1A", "nginx", 30_000, "low", 4, (2381, "7ddbb5a600661a31", 103)),
    ("CPC1A", "mysql", 0, "mid", 4, (203, "b74d2bfc067f8c6d", 9)),
    ("CPC1A", "replay", 0, "example", 4, (819, "1ef602253b15b110", 56)),
    ("CPC1A", "kafka", 0, "low", 4, (116, "2e0eac375ad62947", 4)),
    ("CPC1A", "kafka", 0, "high", 4, (55, "d8b09b2c2e567115", 0)),
    ("CPC1A", "rpc-fanout", 8_000, "low", 4, (1086, "fcb5b6e07ac01dee", 144)),
    ("Cdeep", "memcached", 4_000, "low", 20, (1659, "23e66bb523e8a6bc", 108)),
]

#: (config, property overrides, qps, window in ms, (events, digest,
#: completions)) of memcached ``low``: a P-state-scaled service time,
#: and OS tick work on every core or on busy cores only.
_PROPS_PINS = [
    ("CPC1A", (("pstate.nominal", "P2"),), 40_000, 4, (1510, "906cf1d143981128", 182)),
    ("Cshallow", (("timer_tick_hz", 250),), 4_000, 20, (816, "7bb5a99436e0fa35", 109)),
    (
        "CPC1A", (("tick_mode", "nohz_idle"), ("timer_tick_hz", 250)), 4_000, 20,
        (2853, "089181d1b9c20245", 109),
    ),
]


class TestArrivalDriver:
    """Streams and the PC6 flow fire at the times, with the seqs, that
    they had as generator processes."""

    @pytest.mark.parametrize(
        ("config", "name", "qps", "preset", "window_ms", "expected"),
        _STREAM_PINS,
        # The CPC1A ids keep the form they had before the config column.
        ids=[
            f"{n}-{q}-{p}-expected{i}" if c == "CPC1A" else f"{c}-{n}-{q}-{p}"
            for i, (c, n, q, p, _, _) in enumerate(_STREAM_PINS)
        ],
    )
    def test_event_stream_pinned(self, config, name, qps, preset, window_ms, expected):
        workload = build(name, qps, preset)
        assert _event_digest(config, workload, window_ms * MS) == expected

    @pytest.mark.parametrize(
        ("config", "props", "qps", "window_ms", "expected"),
        _PROPS_PINS,
        ids=[
            "+".join([c, *(f"{k}={v}" for k, v in props)]) + f"-{q}"
            for c, props, q, _, _ in _PROPS_PINS
        ],
    )
    def test_event_stream_pinned_with_props(
        self, config, props, qps, window_ms, expected
    ):
        workload = build("memcached", qps, "low")
        assert _event_digest(config, workload, window_ms * MS, props) == expected

    @pytest.mark.parametrize(
        ("config", "expected"),
        [
            ("CPC1A", (5282, "671a1ec5b7665dfc", 109)),
            ("Cdeep", (3425, "06fe0248b8caf632", 108)),
        ],
    )
    def test_snoop_overlay_pinned(self, config, expected):
        snoops = UpiSnoopTraffic(10_000)
        workload = CompositeWorkload([build("memcached", 4_000, "low"), snoops])
        assert _event_digest(config, workload, 20 * MS) == expected
        assert snoops.snoops_sent == 204


def _row_digest(row: dict) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]


def _fleet_run(cluster, name, qps, seed, duration_ns, warmup_ns):
    fleet = FleetMachine(cluster, seed=seed)
    result = run_fleet_experiment(
        build(name, qps, "low"), cluster, duration_ns, warmup_ns, seed, fleet=fleet
    )
    return fleet, flatten_fleet_result(result)


class TestMixedBoundFleet:
    """Servers of 10, 8, 10 and 6 cores share one generator.

    The first core pick starts a block; the first pick on a server with
    another core count rewinds it (early under round robin, at the
    first spill under packing), and the rest of the cell draws single
    values.
    """

    @pytest.mark.parametrize(
        ("routing", "events", "completed", "digest"),
        [
            ("power-aware-pack", 13607, 1744, "36cf7a5063111a3f"),
            ("round-robin", 47561, 1743, "6e89fc79c5831fa9"),
            ("least-outstanding", 52235, 1743, "55adb8cdfd231f2d"),
        ],
    )
    def test_rows_pinned(self, routing, events, completed, digest):
        cluster = ClusterConfig(
            machine="CPC1A",
            n_servers=4,
            routing=routing,
            server_props=(
                {"soc.n_cores": 10},
                {"soc.n_cores": 8},
                {"soc.n_cores": 10},
                {"soc.n_cores": 6},
            ),
        )
        fleet, row = _fleet_run(cluster, "memcached", 150_000, 5, 12 * MS, 1 * MS)
        assert fleet.sim.events_processed == events
        assert row["requests_completed"] == completed
        assert _row_digest(row) == digest


#: Lifecycle knobs that make the plane drain, park, boot and gate
#: within a 30 ms window. Draining spans ticks (so targets and P-states
#: move under draining servers), booting outlasts the first gate dwell,
#: and the three gates fall due at different dwells.
_CONTROL_KNOBS = (
    ("fleet.control_period_ns", 50_000),
    ("fleet.park_drain_ns", 150_000),
    ("fleet.park_boot_ns", 400_000),
    ("fleet.gate_dram_ns", 150_000),
    ("fleet.gate_nic_ns", 250_000),
    ("fleet.gate_iolink_ns", 350_000),
)


class TestControlPlanePinned:
    """Rows, plane counters, per-server P-states and phases of two
    controlled fleets, recorded before the control loops were scoped."""

    @pytest.mark.parametrize(
        ("control", "slo_ns", "counters", "pstates", "phases", "events", "digest"),
        [
            (
                "slo-pack",
                450_000,
                (600, 0, 5, 0, 600, 195778, "P1"),
                ["P1", "P1", "P1", "P1", "P1", "P1"],
                [0, 2, 2, 2, 2, 2],
                34094,
                "4d4eec510ef734ac",
            ),
            (
                "sleepscale",
                250_000,
                (600, 0, 65, 47, 600, 203699, "P1"),
                ["P1", "P1", "P1", "P1", "P1", "P2"],
                [0, 2, 2, 1, 2, 2],
                34338,
                "1e8f296b2857faa9",
            ),
        ],
    )
    def test_rows_and_counters_pinned(
        self, control, slo_ns, counters, pstates, phases, events, digest
    ):
        cluster = ClusterConfig(
            machine="CPC1A",
            n_servers=6,
            routing="power-aware-pack",
            control=control,
            control_props=_CONTROL_KNOBS + (("fleet.slo_p99_ns", slo_ns),),
        )
        fleet, row = _fleet_run(cluster, "memcached-diurnal", 300_000, 11, 30 * MS, 0)
        plane = fleet.control
        assert (
            plane.slo_windows,
            plane.slo_violations,
            plane.park_commands,
            plane.unpark_commands,
            plane.ticks_run,
            plane.last_p99_ns,
            plane.desired_pstate,
        ) == counters
        assert [machine.pstate for machine in fleet.machines] == pstates
        assert plane.phase.tolist() == phases
        assert fleet.sim.events_processed == events
        assert _row_digest(row) == digest
        # A uniform fleet picks every core from blocks.
        assert fleet.sim._blocks_on


_UNROUTABLE_PENALTY = np.int64(1) << 62


def _reference_masked(state):
    if state.n_unroutable >= state.n_servers:
        return None
    return np.where(state.unroutable, _UNROUTABLE_PENALTY, state.outstanding)


def _reference_round_robin(state):
    if state.n_unroutable:
        candidates = np.flatnonzero(~state.unroutable)
        if len(candidates):
            pos = int(np.searchsorted(candidates, state.cursor % state.n_servers))
            return int(candidates[0 if pos == len(candidates) else pos])
    return state.cursor % state.n_servers


def _reference_least_outstanding(state):
    masked = _reference_masked(state) if state.n_unroutable else None
    return int(np.argmin(state.outstanding if masked is None else masked))


def _reference_pack(state):
    masked = _reference_masked(state) if state.n_unroutable else None
    outstanding = state.outstanding if masked is None else masked
    below = outstanding < state.pack_watermark
    index = int(np.argmax(below))
    return index if below[index] else int(np.argmin(outstanding))


def _reference_spread(state):
    masked = _reference_masked(state) if state.n_unroutable else None
    outstanding = state.outstanding if masked is None else masked
    candidates = np.flatnonzero(outstanding == np.min(outstanding))
    offsets = (candidates - state.cursor) % state.n_servers
    return int(candidates[np.argmin(offsets)])


_REFERENCES = {
    "round-robin": _reference_round_robin,
    "least-outstanding": _reference_least_outstanding,
    "power-aware-pack": _reference_pack,
    "power-aware-spread": _reference_spread,
}


@st.composite
def _fleet_states(draw):
    n = draw(st.integers(1, 12))
    state = FleetState(n, draw(st.integers(1, 4)))
    state.outstanding[:] = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    # Every server unroutable is the transient fallback case.
    for index, flag in enumerate(draw(st.lists(st.booleans(), min_size=n, max_size=n))):
        state.set_unroutable(index, flag)
    state.cursor = draw(st.integers(0, 50))
    return state


class TestRoutingPolicies:
    def test_every_policy_has_a_reference(self):
        assert set(_REFERENCES) == set(POLICY_FUNCTIONS)

    @settings(max_examples=300, deadline=None)
    @given(state=_fleet_states(), policy=st.sampled_from(sorted(_REFERENCES)))
    def test_policy_matches_the_np_reference(self, state, policy):
        before = (state.outstanding.copy(), state.unroutable.copy(), state.cursor)
        assert POLICY_FUNCTIONS[policy](state, None) == _REFERENCES[policy](state)
        # Pure: the decision leaves the state alone.
        assert np.array_equal(state.outstanding, before[0])
        assert np.array_equal(state.unroutable, before[1])
        assert state.cursor == before[2]

    def test_all_unroutable_falls_back_to_the_plain_scan(self):
        state = FleetState(3, 2)
        state.outstanding[:] = [4, 1, 1]
        for index in range(3):
            state.set_unroutable(index, True)
        assert POLICY_FUNCTIONS["least-outstanding"](state, None) == 1
        assert POLICY_FUNCTIONS["power-aware-pack"](state, None) == 1


class TestServiceTimesAreWhole:
    @pytest.mark.parametrize(
        "bad", (0.5, 1.5, 2.0000001, 0, -3, float("nan"), float("inf"), None)
    )
    def test_request_rejects(self, bad):
        with pytest.raises(ValueError, match="service time"):
            Request("get", service_ns=bad)

    @pytest.mark.parametrize("bad", (0.5, 7.25, 0, -1))
    def test_job_rejects(self, bad):
        core = ServerMachine(cpc1a(), seed=1).cores[0]
        with pytest.raises(CoreError, match="service time"):
            core.submit(bad)
        assert not core.queue

    @pytest.mark.parametrize("good", (1, 2.0, np.int64(9), np.float64(30.0)))
    def test_whole_values_pass_as_int(self, good):
        request = Request("get", service_ns=good)
        assert request.service_ns == int(good)
        assert type(request.service_ns) is int
        core = ServerMachine(cpc1a(), seed=1).cores[0]
        core.submit(good, None, request)
        ((service_ns, _, payload),) = core.queue
        assert service_ns == int(good) and type(service_ns) is int
        assert payload is request

"""Tests for signal wires, AND trees and the timed FSM base."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw import AndTree, FsmError, Signal, SignalError, TimedFsm


class TestSignal:
    def test_initial_value(self):
        assert Signal("s", value=True).value is True
        assert Signal("s").value is False

    def test_set_changes_value(self):
        s = Signal("s")
        s.set(True)
        assert s.value is True

    def test_watcher_fires_on_change(self):
        s = Signal("s")
        seen = []
        s.watch(lambda sig, old, new: seen.append((old, new)))
        s.set(True)
        s.set(False)
        assert seen == [(False, True), (True, False)]

    def test_watcher_not_fired_on_same_value(self):
        s = Signal("s")
        seen = []
        s.watch(lambda sig, old, new: seen.append(new))
        s.set(False)
        assert seen == []

    def test_assert_deassert_vocabulary(self):
        s = Signal("s")
        s.assert_()
        assert s.value
        s.deassert()
        assert not s.value

    def test_transition_counter(self):
        # Watchers see each level change once; a repeated level is no
        # edge.
        s = Signal("s")
        edges = []
        s.watch(lambda sig, old, new: edges.append(new))
        s.set(True)
        s.set(True)
        s.set(False)
        assert edges == [True, False]

    def test_unwatch_removes_watcher(self):
        s = Signal("s")
        seen = []

        def fn(sig, old, new):
            seen.append(new)

        s.watch(fn)
        s.unwatch(fn)
        s.set(True)
        assert seen == []

    def test_bool_conversion(self):
        assert bool(Signal("s", value=True))
        assert not bool(Signal("s"))

    def test_non_bool_drives_store_and_report_bools(self):
        # set() branches on truthiness: the stored level and the
        # watchers' old/new stay real bools, and edges count exactly
        # as bool() normalization would.
        s = Signal("s")
        seen = []
        s.watch(lambda sig, old, new: seen.append((old, new)))
        s.set(1)
        assert s.value is True
        s.set(0)
        assert s.value is False
        s.set(None)
        assert s.value is False
        s.set("high")
        assert s.value is True
        s.set(2)
        assert s.value is True
        s.set(0.0)
        assert s.value is False
        # Edges exactly where bool(drive) changed: 1, 0, "high", 0.0.
        assert seen == [(False, True), (True, False), (False, True), (True, False)]
        assert all(type(old) is bool and type(new) is bool for old, new in seen)

    def test_watch_list_is_snapshot_per_edge(self):
        # Mid-notification watch/unwatch changes take effect from the
        # next edge on, never within the round that made them.
        s = Signal("s")
        calls = []

        def once(sig, old, new):  # unwatches itself (cf. Apmu._on_pwr_ok)
            calls.append("once")
            s.unwatch(once)

        def remover(sig, old, new):
            calls.append("remover")
            if new:
                s.unwatch(victim)
                s.watch(late)

        def victim(sig, old, new):
            calls.append("victim")

        def late(sig, old, new):
            calls.append("late")

        for fn in (once, remover, victim):
            s.watch(fn)
        s.set(True)
        assert calls == ["once", "remover", "victim"]
        calls.clear()
        s.set(False)
        assert calls == ["remover", "late"]


class TestAndTree:
    def test_output_is_and_of_inputs(self):
        a, b = Signal("a", value=True), Signal("b", value=True)
        tree = AndTree("t", [a, b])
        assert tree.value is True
        b.set(False)
        assert tree.value is False

    def test_initially_false_with_low_input(self):
        tree = AndTree("t", [Signal("a", value=True), Signal("b")])
        assert tree.value is False

    def test_output_edge_fires_watchers(self):
        inputs = [Signal(f"i{i}") for i in range(4)]
        tree = AndTree("t", inputs)
        edges = []
        tree.output.watch(lambda sig, old, new: edges.append(new))
        for s in inputs:
            s.set(True)
        assert edges == [True]  # exactly one rising edge
        inputs[2].set(False)
        assert edges == [True, False]

    def test_single_input_tree(self):
        a = Signal("a")
        tree = AndTree("t", [a])
        a.set(True)
        assert tree.value

    def test_empty_tree_rejected(self):
        with pytest.raises(SignalError):
            AndTree("t", [])

    def test_output_cannot_be_driven(self):
        tree = AndTree("t", [Signal("a")])
        with pytest.raises(SignalError):
            tree.output.set(True)

    def test_levels_counts_gate_stages(self):
        tree = AndTree("t", [Signal(f"i{i}") for i in range(10)])
        # 10 inputs with 4-input gates: 10 -> 3 -> 1 = 2 levels.
        assert tree.levels(fan_in=4) == 2
        # With 2-input gates: 10 -> 5 -> 3 -> 2 -> 1 = 4 levels.
        assert tree.levels(fan_in=2) == 4

    def test_levels_rejects_fan_in_below_two(self):
        tree = AndTree("t", [Signal("a")])
        with pytest.raises(SignalError):
            tree.levels(fan_in=1)

    @given(
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.lists(st.tuples(st.integers(0, 11), st.booleans()), max_size=40),
    )
    def test_counting_tree_matches_all_reference(self, initial, sets):
        inputs = [Signal(f"i{k}", value=v) for k, v in enumerate(initial)]
        tree = AndTree("t", inputs)
        edges = []
        tree.output.watch(lambda sig, old, new: edges.append((old, new)))
        reference = all(initial)
        expected = []
        assert tree.value is reference
        for index, value in sets:
            inputs[index % len(inputs)].set(value)
            now = all(s.value for s in inputs)
            if now != reference:
                expected.append((reference, now))
                reference = now
            assert tree.value is reference
        assert edges == expected


class _TrafficLight(TimedFsm):
    STATES = ("Red", "Green", "Yellow")

    def __init__(self, sim, on_transition=None):
        super().__init__(sim, "light", "Red", on_transition)
        self.entered = []

    def on_enter_green(self):
        self.entered.append(("green", self.sim.now))

    def on_exit_red(self):
        self.entered.append(("left-red", self.sim.now))


class TestTimedFsm:
    def test_immediate_transition(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green")
        assert fsm.state == "Green"

    def test_delayed_transition(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=100)
        assert fsm.state == "Red"
        sim.run()
        assert fsm.state == "Green"
        assert sim.now == 100

    def test_enter_exit_hooks_run(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green")
        assert ("left-red", 0) in fsm.entered
        assert ("green", 0) in fsm.entered

    def test_latest_goto_wins(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=100)
        fsm.goto("Yellow", after_ns=10)
        sim.run()
        assert fsm.state == "Yellow"

    def test_unknown_state_rejected(self, sim):
        fsm = _TrafficLight(sim)
        with pytest.raises(FsmError):
            fsm.goto("Blue")

    def test_unknown_initial_rejected(self, sim):
        class Bad(TimedFsm):
            STATES = ("A",)

        with pytest.raises(FsmError):
            Bad(sim, "bad", "B")

    def test_log_records_transitions(self, sim):
        # The FSM keeps no log of its own; on_transition is the hook.
        log = []
        fsm = _TrafficLight(sim, lambda state: log.append((sim.now, state)))
        fsm.goto("Green")
        fsm.goto("Yellow", after_ns=10)
        sim.run()
        assert log == [(0, "Green"), (10, "Yellow")]
        assert not hasattr(fsm, "log")

    def test_pending_target_visible(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=50)
        assert fsm.pending_target == "Green"
        sim.run()
        assert fsm.pending_target is None

    def test_cancel_pending_aborts(self, sim):
        fsm = _TrafficLight(sim)
        fsm.goto("Green", after_ns=50)
        fsm.cancel_pending()
        sim.run()
        assert fsm.state == "Red"

    def test_time_in_state(self, sim):
        fsm = _TrafficLight(sim)
        sim.schedule(30, fsm.goto, "Green")
        sim.run()
        sim.schedule(70, lambda: None)
        sim.run()
        assert fsm.time_in_state() == 70

    def test_self_transition_is_noop(self, sim):
        log = []
        fsm = _TrafficLight(sim, log.append)
        sim.schedule(5, fsm.goto, "Red")
        sim.run()
        assert log == []
        assert fsm.state_entered_at == 0

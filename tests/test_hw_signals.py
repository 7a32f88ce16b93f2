"""Tests for signal wires, AND trees and the LTSSM's timed transitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw import AndTree, Signal, SignalError
from repro.iolink.lstates import PCIE_TIMINGS
from repro.iolink.ltssm import Ltssm, LtssmError


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


def _ltssm(sim, on_transition=None, start_in_l0=True):
    return Ltssm(
        sim, "pcie0.ltssm", PCIE_TIMINGS,
        start_in_l0=start_in_l0, on_transition=on_transition,
    )


class TestTimedFsm:
    """The LTSSM's timed transitions: immediate or delayed, preempted by
    a later ``goto``, cancelled, and reported after the entry action."""

    def test_immediate_transition(self, sim):
        ltssm = _ltssm(sim)
        ltssm.goto("L0s")
        assert ltssm.state == "L0s"

    def test_delayed_transition(self, sim):
        ltssm = _ltssm(sim)
        ltssm.goto("L0s", after_ns=100)
        assert ltssm.state == "L0"
        sim.run()
        assert ltssm.state == "L0s"
        assert sim.now == 100

    def test_on_transition_runs_after_the_entry_action(self, sim):
        # Each training state schedules the next on entry; the listener
        # already sees that pending transition.
        log = []
        ltssm = _ltssm(
            sim, lambda state: log.append((state, ltssm.pending_target)),
            start_in_l0=False,
        )
        sim.run()
        assert log == [("Polling", "Configuration"), ("Configuration", "L0"),
                       ("L0", None)]

    def test_latest_goto_wins(self, sim):
        ltssm = _ltssm(sim)
        ltssm.goto("L0s", after_ns=100)
        ltssm.goto("L0p", after_ns=10)
        sim.run()
        assert ltssm.state == "L0p"
        assert sim.now == 10

    def test_unknown_state_rejected(self, sim):
        ltssm = _ltssm(sim)
        with pytest.raises(LtssmError):
            ltssm.goto("Blue")

    def test_log_records_transitions(self, sim):
        # The LTSSM keeps no log of its own; on_transition is the hook.
        log = []
        ltssm = _ltssm(sim, lambda state: log.append((sim.now, state)))
        ltssm.goto("L0s")
        ltssm.goto("L0", after_ns=10)
        sim.run()
        assert log == [(0, "L0s"), (10, "L0")]
        assert not hasattr(ltssm, "log")

    def test_pending_target_visible(self, sim):
        ltssm = _ltssm(sim)
        ltssm.goto("L0s", after_ns=50)
        assert ltssm.pending_target == "L0s"
        sim.run()
        assert ltssm.pending_target is None

    def test_cancel_pending_aborts(self, sim):
        ltssm = _ltssm(sim)
        ltssm.goto("L0s", after_ns=50)
        ltssm.cancel_pending()
        sim.run()
        assert ltssm.state == "L0"
        assert ltssm.pending_target is None

    def test_self_transition_is_noop(self, sim):
        log = []
        ltssm = _ltssm(sim, log.append)
        sim.schedule(5, ltssm.goto, "L0")
        sim.run()
        assert log == []
        assert ltssm.state == "L0"

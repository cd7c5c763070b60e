"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(2.0, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        h = sim.schedule(1.0, lambda: log.append("x"))
        h.cancel()
        sim.run()
        assert log == []
        assert h.cancelled

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        h.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        fired = sim.run(until=5.0)
        assert fired == 1 and log == [1]
        assert sim.now == 5.0
        sim.run()
        assert log == [1, 10]

    def test_run_until_in_the_past_keeps_the_clock(self):
        sim = Simulator()
        fired_at = []
        sim.schedule(10.0, lambda: fired_at.append(sim.now))
        sim.run()
        sim.schedule(2.0, lambda: fired_at.append(sim.now))
        assert sim.run(until=5.0) == 0
        assert sim.now == 10.0
        sim.run()
        assert fired_at == [10.0, 12.0]

    def test_run_max_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        assert sim.run(max_events=2) == 2
        assert log == [0, 1]

    def test_stop_when(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(stop_when=lambda: len(log) >= 3)
        assert log == [0, 1, 2]

    def test_run_empty_queue(self):
        assert Simulator().run() == 0

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.schedule(2.5, lambda: None)
        assert sim.peek_time() == 2.5

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 2.0

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestPost:
    def test_post_passes_arguments(self):
        sim = Simulator()
        log = []
        sim.post(2.0, lambda a, b: log.append((sim.now, a, b)), "x", 7)
        sim.run()
        assert log == [(2.0, "x", 7)]

    def test_post_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().post(-1.0, lambda: None)

    def test_post_and_schedule_share_one_sequence(self):
        # equal-time ties fire in push order, whichever call pushed them
        sim = Simulator()
        log = []
        for i in range(6):
            if i % 2:
                sim.schedule(1.0, lambda i=i: log.append(i))
            else:
                sim.post(1.0, log.append, i)
        sim.run()
        assert log == [0, 1, 2, 3, 4, 5]

    def test_cancelled_handle_among_posts(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.post(t, log.append, t)
        h = sim.schedule(2.0, lambda: log.append("cancelled"))
        sim.post(2.0, log.append, "after")
        assert sim.pending == 5
        h.cancel()
        assert sim.pending == 4
        h.cancel()  # a second cancel changes nothing
        assert sim.pending == 4
        assert sim.run() == 4
        assert log == [1.0, 2.0, "after", 3.0]
        assert sim.events_processed == 4
        assert sim.pending == 0

    def test_cancel_after_firing_is_a_no_op(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        sim.step()
        h.cancel()
        assert not h.cancelled and h.done
        assert sim.pending == 1


def _mixed_heap(sim, log):
    """A heap of posts and handles at clashing times, some cancelled, with
    callbacks that push more events as they fire."""

    def spawn(label, depth):
        log.append((sim.now, label))
        if depth:
            sim.post(0.5 * depth, spawn, label + "p", depth - 1)
            sim.schedule(0.5, lambda: spawn(label + "s", depth - 1))

    handles = []
    for i in range(12):
        t = float(i % 4)
        if i % 3:
            sim.post(t, spawn, f"p{i}", 2)
        else:
            handles.append(sim.schedule(t, lambda i=i: spawn(f"s{i}", 2)))
    handles[1].cancel()
    handles[3].cancel()


def _reference():
    sim = Simulator()
    log = []
    _mixed_heap(sim, log)
    sim.run()
    return log, sim.now, sim.events_processed


class TestDrivingAgreement:
    """``step``, ``peek_time`` and every ``run`` control fire the same
    events in the same order as the inline loop of a bare ``run()``."""

    def test_step_and_peek_time(self):
        log, now, events = _reference()
        sim = Simulator()
        got = []
        _mixed_heap(sim, got)
        while True:
            nxt = sim.peek_time()
            if not sim.step():
                assert nxt is None
                break
            assert sim.now == nxt
        assert got == log and sim.now == now and sim.events_processed == events
        assert sim.pending == 0

    def test_run_until(self):
        log, now, events = _reference()
        sim = Simulator()
        got = []
        _mixed_heap(sim, got)
        t = 0.0
        while sim.pending:
            t += 0.25
            sim.run(until=t)
        assert got == log and sim.events_processed == events

    def test_run_max_events(self):
        log, now, events = _reference()
        sim = Simulator()
        got = []
        _mixed_heap(sim, got)
        total = 0
        while True:
            fired = sim.run(max_events=3)
            total += fired
            if fired < 3:
                break
        assert got == log and sim.now == now
        assert total == events == sim.events_processed

    def test_run_stop_when(self):
        log, now, events = _reference()
        sim = Simulator()
        got = []
        _mixed_heap(sim, got)
        sim.run(stop_when=lambda: len(got) >= len(log) // 2)
        assert got == log[: len(log) // 2]
        sim.run(stop_when=lambda: False)
        assert got == log and sim.now == now and sim.events_processed == events


class TestDeliveryEntries:
    def test_multicast_is_one_flat_entry_per_copy(self):
        from functools import partial

        import numpy as np

        from repro.sim.engine import EventHandle
        from repro.sim.latency import ConstantLatency
        from repro.sim.network import Network

        sim = Simulator()
        net = Network(sim, ConstantLatency(1.0), np.random.default_rng(0))
        msgs = [object() for _ in range(4)]
        net.send_many("update", msgs, 0, [1, 2, 3, 4])
        assert len(sim._heap) == 4
        for entry, msg in zip(sorted(sim._heap), msgs):
            assert entry[3] is msg
            assert not any(isinstance(x, (EventHandle, partial)) for x in entry)

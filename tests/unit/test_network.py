"""Unit tests for the simulated FIFO network."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.network import Network


def make_net(latency=None, seed=0):
    sim = Simulator()
    net = Network(sim, latency or ConstantLatency(1.0), np.random.default_rng(seed))
    return sim, net


class TestDelivery:
    def test_delivers_after_latency(self):
        sim, net = make_net(ConstantLatency(5.0))
        got = []
        net.register(1, lambda kind, msg: got.append((sim.now, kind, msg)))
        net.send("update", "hello", 0, 1)
        sim.run()
        assert got == [(5.0, "update", "hello")]

    def test_self_send_rejected(self):
        _, net = make_net()
        with pytest.raises(SimulationError):
            net.send("update", "x", 2, 2)

    def test_rejected_multicast_charges_nothing(self):
        # the self-send is the second copy: the first must not be charged
        sim = Simulator()
        metrics = MetricsCollector()
        net = Network(sim, ConstantLatency(1.0), np.random.default_rng(0), metrics)
        with pytest.raises(SimulationError, match="site 0 sending to itself"):
            net.send_many("x", ["a", "b"], 0, [1, 0])
        assert net.messages_sent == 0
        assert metrics.message_counts.get("x", 0) == 0
        assert metrics.summary().total_messages == 0
        assert sim.pending == 0

    def test_unregistered_destination_raises_at_delivery(self):
        sim, net = make_net()
        net.send("update", "x", 0, 1)
        with pytest.raises(SimulationError):
            sim.run()

    def test_double_register_rejected(self):
        _, net = make_net()
        net.register(0, lambda k, m: None)
        with pytest.raises(SimulationError):
            net.register(0, lambda k, m: None)

    def test_counters(self):
        sim, net = make_net()
        net.register(1, lambda k, m: None)
        net.send("update", "a", 0, 1)
        net.send("update", "b", 0, 1)
        sim.run()
        assert net.messages_sent == 2
        assert net.messages_delivered == 2
        assert net.messages_dropped == 0


class TestFifo:
    def test_fifo_preserved_under_random_latency(self):
        sim, net = make_net(UniformLatency(0.1, 10.0), seed=42)
        got = []
        net.register(1, lambda k, m: got.append(m))
        for i in range(50):
            net.send("update", i, 0, 1)
        sim.run()
        assert got == list(range(50))

    def test_fifo_is_per_channel(self):
        # messages on different channels may interleave arbitrarily
        sim, net = make_net(ConstantLatency(1.0))
        got = []
        net.register(2, lambda k, m: got.append(m))
        net.send("update", "from0", 0, 2)
        net.send("update", "from1", 1, 2)
        sim.run()
        assert sorted(got) == ["from0", "from1"]


class TestFailureInjection:
    def test_messages_to_down_site_dropped(self):
        sim, net = make_net()
        got = []
        net.register(1, lambda k, m: got.append(m))
        net.fail_site(1)
        net.send("update", "x", 0, 1)
        sim.run()
        assert got == []
        assert net.messages_dropped == 1

    def test_messages_from_down_site_dropped(self):
        sim, net = make_net()
        got = []
        net.register(1, lambda k, m: got.append(m))
        net.fail_site(0)
        net.send("update", "x", 0, 1)
        sim.run()
        assert got == []

    def test_site_down_at_delivery_time_drops(self):
        sim, net = make_net(ConstantLatency(10.0))
        got = []
        net.register(1, lambda k, m: got.append(m))
        net.send("update", "x", 0, 1)
        sim.schedule(1.0, lambda: net.fail_site(1))
        sim.run()
        assert got == []

    def test_recover_site(self):
        sim, net = make_net()
        got = []
        net.register(1, lambda k, m: got.append(m))
        net.fail_site(1)
        net.recover_site(1)
        net.send("update", "x", 0, 1)
        sim.run()
        assert got == ["x"]

    def test_drop_filter(self):
        sim, net = make_net()
        got = []
        net.register(1, lambda k, m: got.append(m))
        net.drop_filter = lambda kind, msg, src, dst: msg == "evil"
        net.send("update", "good", 0, 1)
        net.send("update", "evil", 0, 1)
        sim.run()
        assert got == ["good"]

"""A multicast is one send: ``LatencyModel.sample_many`` must consume the
generator exactly as the scalar loop does, and ``Network.send_many`` must
hold, drop, deliver and time exactly what per-message ``send`` calls do."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    MatrixLatency,
    UniformLatency,
)
from repro.sim.network import Network

N = 16
BASE = np.random.default_rng(42).uniform(0.5, 400.0, size=(N, N))


class ScalarOnly(LatencyModel):
    """A third-party model: only ``sample``; inherits the default loop."""

    def sample(self, src, dst, rng):
        return float(rng.exponential(2.0)) + dst


def models(sigma):
    return [
        ConstantLatency(2.5),
        UniformLatency(0.5, 1.5),
        LogNormalLatency(1.3, sigma),
        MatrixLatency(BASE, jitter_sigma=sigma),
        ScalarOnly(),
    ]


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("k", [0, 1, 15])
@pytest.mark.parametrize("which", range(5))
def test_sample_many_is_the_scalar_loop(which, k, sigma):
    model = models(sigma)[which]
    dsts = list(range(1, k + 1))
    scalar_rng, vector_rng = np.random.default_rng(9), np.random.default_rng(9)
    scalar = [model.sample(0, d, scalar_rng) for d in dsts]
    vector = model.sample_many(0, dsts, vector_rng)
    assert vector == scalar  # value for value, not approximately
    assert all(type(x) is float for x in vector)
    assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


def run_sends(multicast, disturb):
    """Site 0 sends one message to every other site, three times over,
    through a network ``disturb`` has partitioned / failed / filtered.
    Returns everything observable about the outcome."""
    sim = Simulator()
    net = Network(sim, MatrixLatency(BASE, jitter_sigma=0.3), np.random.default_rng(5))
    got = []
    for site in range(N):
        net.register(site, lambda kind, msg, site=site: got.append((sim.now, site, msg)))
    disturb(net)
    for burst in range(3):
        msgs = [f"m{burst}.{d}" for d in range(1, N)]
        dsts = list(range(1, N))
        if multicast:
            net.send_many("update", msgs, 0, dsts)
        else:
            for msg, dst in zip(msgs, dsts):
                net.send("update", msg, 0, dst)
        sim.run(until=sim.now + 1.0)
    state_after_sends = net.rng.bit_generator.state
    released = net.heal()
    sim.run()
    return {
        "got": got,
        "sent": net.messages_sent,
        "held": net.messages_held,
        "dropped": net.messages_dropped,
        "delivered": net.messages_delivered,
        "released": released,
        "rng_after_sends": state_after_sends,
        "rng_at_end": net.rng.bit_generator.state,
        "events": sim.events_processed,
    }


def undisturbed(net):
    pass


def partitioned(net):
    net.partition([0, 1, 2, 3], [4, 5, 6])


def one_site_down(net):
    net.fail_site(7)


def lossy(net):
    net.drop_filter = lambda kind, msg, src, dst: dst % 5 == 0


def everything(net):
    partitioned(net)
    one_site_down(net)
    lossy(net)


@pytest.mark.parametrize(
    "disturb", [undisturbed, partitioned, one_site_down, lossy, everything]
)
def test_send_many_is_the_per_message_path(disturb):
    one_by_one = run_sends(False, disturb)
    together = run_sends(True, disturb)
    assert together == one_by_one
    assert one_by_one["sent"] == 3 * (N - 1)
    if disturb is everything:
        assert one_by_one["held"] and one_by_one["dropped"] and one_by_one["got"]


def test_send_is_send_many_of_one():
    sim = Simulator()
    net = Network(sim, ConstantLatency(1.0), np.random.default_rng(0))
    seen = []
    net.send_many = lambda *args: seen.append(args)
    net.send("update", "x", 0, 1)
    assert seen == [("update", ("x",), 0, (1,), False)]

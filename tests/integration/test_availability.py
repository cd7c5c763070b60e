"""Integration tests for the Section-V availability extension: non-local
reads that time out fail over to a secondary replica."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.ext.availability import FailoverReader
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.sim.topology import evenly_spread
from repro.verify.checker import check_history

PARTIAL_PROTOCOLS = ["full-track", "opt-track"]


def make_cluster(protocol, n=5):
    return Cluster(
        ClusterConfig(
            n_sites=n,
            n_variables=10,
            protocol=protocol,
            replication_factor=3,
            topology=evenly_spread(n),
            seed=4,
        )
    )


def remote_reader_for(cluster, var):
    """A (reader site, replicas) pair where the reader does not replicate
    ``var``."""
    reps = cluster.placement[var]
    reader = next(s for s in range(cluster.n_sites) if s not in reps)
    return reader, reps


@pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
class TestFailover:
    def test_healthy_primary_one_attempt(self, protocol):
        cluster = make_cluster(protocol)
        var = "x0"
        writer = cluster.placement[var][0]
        cluster.session(writer).write(var, "v")
        cluster.settle()
        reader, _ = remote_reader_for(cluster, var)
        outcome = FailoverReader(cluster, reader, timeout=500.0).read(var)
        assert outcome.value == "v"
        assert outcome.attempts == 1
        assert outcome.failed_over == []
        cluster.settle()

    def test_down_primary_fails_over_to_secondary(self, protocol):
        cluster = make_cluster(protocol)
        var = "x0"
        writer = cluster.placement[var][0]
        cluster.session(writer).write(var, "v")
        cluster.settle()
        reader, reps = remote_reader_for(cluster, var)
        fr = FailoverReader(cluster, reader, timeout=600.0)
        primary = fr._server_order(var)[0]
        cluster.network.fail_site(primary)
        outcome = fr.read(var)
        assert outcome.value == "v"
        assert outcome.attempts == 2
        assert outcome.failed_over == [primary]
        assert outcome.served_by in reps and outcome.served_by != primary

    def test_all_replicas_down_raises(self, protocol):
        cluster = make_cluster(protocol)
        var = "x0"
        reader, reps = remote_reader_for(cluster, var)
        for r in reps:
            cluster.network.fail_site(r)
        fr = FailoverReader(cluster, reader, timeout=20.0)
        with pytest.raises(SimulationError):
            fr.read(var)

    def test_local_read_unaffected_by_failures(self, protocol):
        cluster = make_cluster(protocol)
        var = "x0"
        reps = cluster.placement[var]
        cluster.session(reps[0]).write(var, "v")
        cluster.settle()
        for s in range(cluster.n_sites):
            if s != reps[0]:
                cluster.network.fail_site(s)
        outcome = FailoverReader(cluster, reps[0], timeout=10.0).read(var)
        assert outcome.value == "v"
        assert outcome.served_by == reps[0]

    def test_late_reply_after_timeout_is_ignored(self, protocol):
        # primary is merely SLOW (not down): the timeout fires first, the
        # read fails over, and the primary's late reply must drain without
        # corrupting anything.
        import numpy as np

        from repro.sim.latency import MatrixLatency

        base = np.array(
            [
                [0.0, 40.0, 5.0],  # reader 0: primary (1) RTT 80, secondary (2) RTT 10
                [40.0, 0.0, 1.0],
                [5.0, 1.0, 0.0],
            ]
        )
        cluster = Cluster(
            ClusterConfig(
                n_sites=3,
                protocol=protocol,
                placement={"x": (1, 2)},
                latency=MatrixLatency(base, jitter_sigma=0.0),
                seed=0,
            )
        )
        cluster.session(1).write("x", "v")
        cluster.settle()
        fr = FailoverReader(cluster, 0, timeout=30.0)
        outcome = fr.read("x")
        assert outcome.value == "v"
        assert outcome.attempts == 2
        assert outcome.failed_over == [1]
        assert outcome.served_by == 2
        cluster.settle()  # the primary's late reply drains without effect


@pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
def test_local_read_waits_for_what_a_remote_read_imported(protocol):
    """A failover reader's local read takes the same gate as every other
    read: after a remote read of ``x`` imports knowledge of ``w(y)``,
    whose update to the reader crawls the slow 2 -> 0 link, the local
    read of ``y`` waits for it instead of returning the initial value."""
    base = np.array(
        [
            [0.0, 1.0, 100.0],  # 0 <-> 2 is the slow WAN hop
            [1.0, 0.0, 1.0],
            [100.0, 1.0, 0.0],
        ]
    )
    cluster = Cluster(
        ClusterConfig(
            n_sites=3,
            protocol=protocol,
            placement={"x": (1,), "y": (0, 2)},
            latency=MatrixLatency(base, jitter_sigma=0.0),
            seed=0,
        )
    )
    cluster.session(2).write("y", "new")  # in flight to site 0 for 100 ms
    cluster.session(2).write("x", "x")  # reaches site 1 at once
    cluster.sim.run(until=5.0)
    reader = FailoverReader(cluster, 0, timeout=50.0)
    assert reader.read("x").value == "x"
    assert reader.read("y").value == "new"
    assert check_history(cluster.history, cluster.placement).ok
    cluster.settle()

"""Table-I space numbers are a function of what ``meta_objects()`` yields
and how ``SizeModel`` prices each object by type.  The Apply arrays and
the known-applies table left numpy, so they are yielded as ``array("q")``
and priced per entry — this pins, per protocol, that every yielded object
still costs what it cost when it was an ``ndarray`` (a ``list`` would be
priced as (id, clock) pairs, half again as much).  The literals were
captured from the numpy-backed implementation on the same run."""

import pytest

from repro.metrics.sizes import SizeModel
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workload.generator import WorkloadConfig, generate

#: protocol -> (bytes of control state per site, price of each object site
#: 0 yields in yield order, priced bytes of every message sent)
EXPECTED = {
    "full-track": (
        [960, 1200, 1200, 960, 720],
        [200, 40, 200, 200, 200, 40, 40, 40],
        38536,
    ),
    "opt-track": (
        [1004, 944, 916, 740, 632],
        [152, 40, 180, 128, 124, 60, 60, 60, 200],
        24424,
    ),
    "opt-track-crp": (
        [160, 148, 148, 148, 148],
        [24, 40, 12, 12, 12, 12, 12, 12, 12, 12],
        15184,
    ),
    "optp": ([400] * 5, [40] * 10, 19712),
    "ahamad": ([80] * 5, [40, 40], 19712),
}


@pytest.mark.parametrize("protocol", sorted(EXPECTED))
def test_meta_sizes_match_the_numpy_backed_run(protocol):
    partial = protocol in ("full-track", "opt-track")
    cluster = Cluster(
        ClusterConfig(
            n_sites=5,
            n_variables=8,
            protocol=protocol,
            replication_factor=2 if partial else None,
            seed=4,
        )
    )
    workload = generate(
        WorkloadConfig(
            n_sites=5,
            ops_per_site=30,
            write_rate=0.5,
            placement=cluster.placement,
            seed=5,
        )
    )
    result = cluster.run(workload, check=False)
    if protocol == "opt-track":
        # the ack seam allocates the n x n known-applies table (200 B)
        cluster.protocols[0].note_remote_apply(1, 1)
    model = SizeModel()
    per_site = [
        sum(model.meta_size(obj) for obj in proto.meta_objects())
        for proto in cluster.protocols
    ]
    site0 = [model.meta_size(obj) for obj in cluster.protocols[0].meta_objects()]
    assert (per_site, site0, result.metrics.total_message_bytes) == EXPECTED[protocol]

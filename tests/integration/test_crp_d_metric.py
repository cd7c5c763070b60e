"""Section III-C's practical claim about Opt-Track-CRP's ``d``.

Table I prices CRP messages at O(nwd), ``d`` = records piggybacked per
update (reads since the sender's last write).  The paper argues ``d``
stays far below ``n`` in practice:

* write-intensive: "the local log will be reset at the frequency of write
  operations ... each site simply cannot perform enough read operations
  to build up the local log";
* read-intensive: "read-intensive applications usually only have a
  limited subset of all the sites to perform write operations".

We measure mean piggybacked-log size per update on both regimes.
"""

import pytest

from repro.core.messages import CrpMeta
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workload.generator import WorkloadConfig, generate

N = 12


def mean_d(write_rate, writer_sites=None, seed=5, ops=80):
    """Mean CRP piggyback size, measured by intercepting update metas."""
    cluster = Cluster(
        ClusterConfig(
            n_sites=N,
            n_variables=20,
            protocol="opt-track-crp",
            seed=seed,
            think_time=1.0,
        )
    )
    sizes = []
    original = cluster.network.send_many  # every message enters here

    def spy(kind, msgs, src, dsts, *rest):
        for msg in msgs:
            if kind == "update" and isinstance(getattr(msg, "meta", None), CrpMeta):
                sizes.append(len(msg.meta.log))
        return original(kind, msgs, src, dsts, *rest)

    cluster.network.send_many = spy

    scripts = generate(
        WorkloadConfig(
            n_sites=N,
            ops_per_site=ops,
            write_rate=write_rate,
            variables=[f"x{i}" for i in range(20)],
            seed=seed + 1,
        )
    )
    if writer_sites is not None:
        # read-intensive regime with a limited writer subset: strip
        # writes from all other sites
        from repro.types import OpKind, Operation

        scripts = [
            [
                op
                if (op.kind is OpKind.READ or site in writer_sites)
                else Operation.read(op.var)
                for op in script
            ]
            for site, script in enumerate(scripts)
        ]
    result = cluster.run(scripts, check=False)
    assert sizes, "no updates intercepted"
    return sum(sizes) / len(sizes)


class TestDStaysSmall:
    def test_write_intensive_d_far_below_n(self):
        d = mean_d(write_rate=0.8)
        assert d < N / 3

    def test_read_intensive_with_few_writers(self):
        d = mean_d(write_rate=0.1, writer_sites={0, 1})
        assert d < N / 3

    def test_write_intensive_d_below_read_intensive_d(self):
        # more writes -> more frequent log resets -> smaller d
        heavy = mean_d(write_rate=0.8)
        light = mean_d(write_rate=0.15)
        assert heavy <= light

    def test_d_never_exceeds_n(self):
        for wr in (0.1, 0.5, 0.9):
            assert mean_d(write_rate=wr, seed=int(wr * 10)) <= N

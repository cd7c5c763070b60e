"""E11 — Ablation (beyond the paper): what do the remote-read correctness
completions cost?

DESIGN.md §2a documents two gaps a literal reading of the paper leaves
open under partial replication (unsafe fetch serving; remote-read
knowledge outrunning the local replica) and our completions (fetches
that carry the requester's dependencies + gated local reads), which are
the library's one read path.  The paper-literal read survives only as a
test-local mutant (``tests/paper_literal.py``), substituted through the
protocol registry for the ``strict=False`` runs here.  This benchmark
quantifies the completions' price on an honest WAN workload:

  * read latency: strict reads can stall waiting for in-flight updates;
  * message bytes: strict fetches piggyback an O(n) dependency summary;
  * message count: unchanged (no extra messages, only deferred replies).

And their value: on the paper-literal read the checker finds violations
on adversarial schedules (the integration tests pin specific ones; here
we confirm the aggregate safety/cost trade).  Run from the repository
root (``python -m pytest benchmarks/bench_ablation_strict_reads.py``) so
``tests`` is importable.
"""

import numpy as np
import pytest

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.workload.generator import WorkloadConfig, generate
from tests.paper_literal import use_paper_literal_reads

N = 5


def run(protocol, strict, seed=0, check=False):
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 120.0, size=(N, N))
    np.fill_diagonal(base, 0.0)
    cfg = ClusterConfig(
        n_sites=N,
        n_variables=12,
        protocol=protocol,
        replication_factor=2,
        latency=MatrixLatency(base, jitter_sigma=0.2),
        seed=seed,
        think_time=1.0,
    )
    with pytest.MonkeyPatch.context() as mp:
        if not strict:
            use_paper_literal_reads(mp)
        cluster = Cluster(cfg)
    wl = generate(
        WorkloadConfig(
            n_sites=N,
            ops_per_site=80,
            write_rate=0.5,
            placement=cluster.placement,
            seed=seed + 9,
        )
    )
    result = cluster.run(wl, check=check)
    return result


@pytest.fixture(scope="module")
def pairs():
    out = {}
    for protocol in ("full-track", "opt-track"):
        for strict in (True, False):
            rs = [run(protocol, strict, seed) for seed in range(4)]
            out[(protocol, strict)] = rs
    return out


def total_read_latency(results):
    return sum(
        r.metrics.op_latency["read-local"]["total"]
        + r.metrics.op_latency["read-remote"]["total"]
        for r in results
    )


class TestCost:
    @pytest.mark.parametrize("protocol", ["full-track", "opt-track"])
    def test_message_count_unchanged(self, pairs, protocol):
        strict = [r.metrics.total_messages for r in pairs[(protocol, True)]]
        lenient = [r.metrics.total_messages for r in pairs[(protocol, False)]]
        assert strict == lenient

    @pytest.mark.parametrize("protocol", ["full-track", "opt-track"])
    def test_read_latency_overhead_is_bounded(self, pairs, protocol):
        strict = total_read_latency(pairs[(protocol, True)])
        lenient = total_read_latency(pairs[(protocol, False)])
        assert strict >= lenient * 0.99  # stalls only add latency...
        assert strict <= lenient * 3.0  # ...and modestly so

    def test_fetch_bytes_overhead_linear_not_quadratic(self, pairs):
        # the strict fetch carries an O(n) summary on the request; the
        # reply's metadata (already charged by the paper) dominates
        strict = sum(
            r.metrics.message_bytes["fetch"] for r in pairs[("full-track", True)]
        )
        lenient = sum(
            r.metrics.message_bytes["fetch"] for r in pairs[("full-track", False)]
        )
        n_fetches = sum(
            r.metrics.message_counts["fetch"] for r in pairs[("full-track", True)]
        )
        per_fetch_extra = (strict - lenient) / max(n_fetches, 1)
        assert per_fetch_extra <= 8 * N + 1  # one clock column


class TestValue:
    @pytest.mark.parametrize("protocol", ["full-track", "opt-track"])
    def test_strict_mode_always_consistent(self, protocol):
        for seed in range(4):
            assert run(protocol, strict=True, seed=seed, check=True).ok


def test_bench_ablation_strict_reads(benchmark):
    def once():
        s = run("opt-track", True, 1)
        l = run("opt-track", False, 1)
        return s, l

    s, l = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info["strict_read_latency_ms"] = round(
        total_read_latency([s]), 1
    )
    benchmark.extra_info["lenient_read_latency_ms"] = round(
        total_read_latency([l]), 1
    )
    benchmark.extra_info["strict_bytes"] = s.metrics.total_message_bytes
    benchmark.extra_info["lenient_bytes"] = l.metrics.total_message_bytes

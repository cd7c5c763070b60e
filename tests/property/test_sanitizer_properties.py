"""Sanitized property slice: real protocols under the runtime causal
sanitizer must never trip it.  The oracle is independent of each
protocol's own metadata (it rebuilds Full-Track matrix clocks from the
observable operation stream), so this cross-validates every protocol's
activation logic — and the Opt-Track pruning — against the paper's
reference algorithm on randomized schedules."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.workload.generator import WorkloadConfig, generate

VARIANTS = [
    ("opt-track", {}),
    ("opt-track", {"distributed_prune": True}),
    ("full-track", {}),
    ("opt-track-crp", {}),
    ("ahamad", {}),
]

COMMON = dict(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def sanitized_params(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    q = draw(st.integers(min_value=1, max_value=6))
    p = draw(st.integers(min_value=1, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, q, p, seed


@pytest.mark.parametrize("protocol,proto_kwargs", VARIANTS)
@settings(**COMMON)
@given(params=sanitized_params())
def test_sanitized_run_stays_clean(protocol, proto_kwargs, params):
    n, q, p, seed = params
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 80.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    partial = protocol in ("opt-track", "full-track")
    cfg = ClusterConfig(
        n_sites=n,
        n_variables=q,
        protocol=protocol,
        replication_factor=p if partial else None,
        latency=MatrixLatency(base, jitter_sigma=0.2),
        seed=seed,
        sanitize=True,
        protocol_kwargs=proto_kwargs,
    )
    cluster = Cluster(cfg)
    wl = generate(
        WorkloadConfig(
            n_sites=n,
            ops_per_site=15,
            write_rate=0.4,
            variables=cluster.variables,
            seed=seed,
        )
    )
    # any sanitizer violation raises out of run(); a passing run means the
    # protocol's every apply satisfied the independent oracle
    result = cluster.run(wl)
    assert result.ok
    if sum(len(ops) for ops in wl):
        assert len(cluster.sanitizer.trace) > 0

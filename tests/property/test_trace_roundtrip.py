"""Property tests for the lifecycle trace pipeline.

Two guarantees back the whole observability story:

1. **Observers are pure.**  A run with ``ClusterConfig(trace=...)``,
   with the causal sanitizer and the §II-B ``Tracer`` each on or off
   beside the lifecycle recorder, must produce the byte-identical
   history of the identical run with tracing off: same operation
   records, same apply events at the same simulated times, same message
   count.  The fingerprints are shared with the
   drain-equivalence suite so "identical history" means the same thing
   everywhere.

2. **The JSONL file is lossless.**  Reloading a trace yields exactly the
   records the live recorder held, the span trees built from either side
   are equal, and re-driving the records through the causal sanitizer's
   Full-Track oracle accepts every apply.

The WAN latency matrix is adversarial on purpose: asymmetric one-way
delays force buffering, so round-trips cover ``buffered``/``wake``
records, not just the happy path.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_drain_equivalence import apply_fingerprint, op_fingerprint

from repro.obs import build_spans, load_trace, replay_trace
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import random_wan
from repro.workload.generator import WorkloadConfig, generate

PARTIAL = ["full-track", "opt-track"]
ALL_PROTOCOLS = PARTIAL + ["opt-track-crp", "optp", "ahamad"]


def run_once(
    protocol, n, q, p, seed, write_rate, trace=None, sanitize=False, tracer=True
):
    cfg = ClusterConfig(
        n_sites=n,
        n_variables=q,
        protocol=protocol,
        replication_factor=p if protocol in PARTIAL else None,
        latency=random_wan(n, seed=seed),
        seed=seed,
        think_time=0.5,
        trace=trace,
        sanitize=sanitize,
    )
    cluster = Cluster(cfg)
    if not tracer and cluster.tracer is not None:
        # the lifecycle recorder alone: the §II-B Tracer detached
        cluster.tracer = None
        cluster.attach_observers()
    wl = generate(
        WorkloadConfig(
            n_sites=n,
            ops_per_site=20,
            write_rate=write_rate,
            placement=cluster.placement,
            seed=seed ^ 0xBEEF,
        )
    )
    result = cluster.run(wl, check=True)
    assert result.ok
    return cluster, result


def assert_observer_purity_and_roundtrip(
    protocol, n, q, p, seed, write_rate, sanitize, tracer, tmp_path
):
    _, plain = run_once(protocol, n, q, p, seed, write_rate)
    path = tmp_path / f"{protocol}-{seed}.jsonl"
    cluster, traced = run_once(
        protocol,
        n,
        q,
        p,
        seed,
        write_rate,
        trace=str(path),
        sanitize=sanitize,
        tracer=tracer,
    )
    assert (cluster.sanitizer is not None) == sanitize
    assert (cluster.tracer is not None) == tracer

    # 1. pure observer: identical histories with tracing on and off, and
    # with the sanitizer and the §II-B Tracer on or off beside it
    assert op_fingerprint(traced.history) == op_fingerprint(plain.history)
    assert apply_fingerprint(traced.history) == apply_fingerprint(
        plain.history
    )
    assert traced.metrics.total_messages == plain.metrics.total_messages

    # 2. lossless round-trip: file == live recorder, span trees equal
    loaded = load_trace(path)
    assert loaded.records == cluster.recorder.records
    assert loaded.protocol == protocol and loaded.n_sites == n
    assert loaded.span_tree() == build_spans(cluster.recorder.records)

    # 3. the recorded history replays cleanly through the oracle.  A
    # low write_rate can legitimately draw an all-read workload (~0.5%
    # at rate 0.125); the oracle then has nothing to check, so gate the
    # coverage assertions on the run actually containing writes.
    report = replay_trace(loaded)
    wrote = any(r.kind.value == "write" for r in traced.history.records)
    if wrote:
        assert report.writes > 0 and report.checks_run > 0
    else:
        assert report.writes == 0


@st.composite
def trace_params(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    q = draw(st.integers(min_value=1, max_value=10))
    p = draw(st.integers(min_value=1, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    write_rate = draw(st.floats(min_value=0.1, max_value=1.0))
    sanitize = draw(st.booleans())
    tracer = draw(st.booleans())
    return n, q, p, seed, write_rate, sanitize, tracer


@pytest.mark.parametrize("protocol", PARTIAL)
class TestTraceRoundTrip:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=trace_params())
    def test_tracing_is_invisible_and_lossless(
        self, protocol, params, tmp_path_factory
    ):
        # hypothesis replays examples, so draw a fresh dir per example
        tmp_path = tmp_path_factory.mktemp("trace")
        assert_observer_purity_and_roundtrip(protocol, *params, tmp_path)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_fixed_seed_roundtrip(protocol, tmp_path):
    """Deterministic pass over every protocol, so each codepath (partial
    and full replication) round-trips on every run, with every
    subscriber of the seam attached."""
    n = 5
    p = 2 if protocol in PARTIAL else n
    assert_observer_purity_and_roundtrip(
        protocol, n, 8, p, 1234, 0.5, True, True, tmp_path
    )

"""Differential property test for the drain.

The dependency wake index (``SimSite.drain``) is a pure performance
rework of the original fixed-point rescan: it must produce the
*identical execution* — same apply events at the same simulated times,
same operation results, same message count — for every protocol, on the
library's read path and on the paper-literal one
(``tests/paper_literal.py``), with batching on or off.  Any
divergence means the index woke something the rescan would not have (or
vice versa), i.e. a correctness bug, not a perf difference.

The rescan is no longer selectable in ``src/`` (docs/performance.md, "One
drain strategy"); it lives here as :class:`RescanSite`, the oracle: every
buffered update, fetch and blocked read is re-tested with the protocol's
boolean predicate, sweep after sweep, until a sweep applies nothing."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.sim.site import SimSite
from repro.workload.generator import WorkloadConfig, generate
from tests.paper_literal import use_paper_literal_reads


class RescanSite(SimSite):
    """The reference drain: a fixed-point rescan over the pending buffers
    in arrival order, using only ``can_apply`` / ``can_serve_fetch`` /
    ``can_read_local`` — none of the ``blocking_*`` hooks, no wake index."""

    def _enqueue_update(self, msg, recv_time):
        self._pu[self._useq] = (msg, recv_time)
        self._useq += 1

    def _on_fetch_request(self, req):
        self._pf[self._fseq] = (req, self.sim.now)
        self._fseq += 1
        self._serve_ready_fetches()

    def wait_local_read(self, var, callback):
        if self.protocol.can_read_local(var):
            callback()
            return
        self._pr[self._rseq] = (var, callback)
        self._rseq += 1

    def drain(self):
        proto = self.protocol
        pu = self._pu
        applied_total = 0
        progress = True
        while progress:
            progress = False
            for seq in list(pu):
                msg, recv_time = pu[seq]
                if proto.can_apply(msg):
                    del pu[seq]
                    if self.obs is not None:
                        self.obs.on_check(self.sim.now, proto, msg)
                    proto.apply_update(msg)
                    self._record_apply(msg.var, msg.write_id, recv_time)
                    self.updates_applied += 1
                    applied_total += 1
                    progress = True
        if applied_total:
            self._serve_ready_fetches()
            for seq in list(self._pr):
                var, callback = self._pr[seq]
                if proto.can_read_local(var):
                    del self._pr[seq]
                    callback()
        return applied_total

    def _serve_ready_fetches(self):
        for seq in list(self._pf):
            req, _ = self._pf[seq]
            if self.protocol.can_serve_fetch(req):
                del self._pf[seq]
                self._serve_fetch(req)


PARTIAL = ["full-track", "opt-track"]
FULL = ["opt-track-crp", "optp", "ahamad"]
ALL_PROTOCOLS = PARTIAL + FULL


def op_fingerprint(history):
    return [
        (r.site, r.index, r.kind.value, r.var, r.write_id, round(r.time, 9))
        for r in history.records
    ]


def apply_fingerprint(history):
    """Apply events are the drain's direct output: order, times and the
    buffering delay (``time - received_time``) must all match."""
    return [
        (a.site, a.write_id, a.var, round(a.time, 9), round(a.received_time, 9))
        for a in history.applies
    ]


def run_once(protocol, n, q, p, seed, write_rate, strict, batch, rescan):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 120.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    partial = protocol in PARTIAL
    cfg = ClusterConfig(
        n_sites=n,
        n_variables=q,
        protocol=protocol,
        replication_factor=p if partial else None,
        latency=MatrixLatency(base, jitter_sigma=0.25),
        seed=seed,
        think_time=1.0,
        batch_window=5.0 if batch else None,
    )
    with pytest.MonkeyPatch.context() as mp:
        if not strict:
            # the paper-literal read (partial-replication protocols only;
            # the others never read remotely)
            use_paper_literal_reads(mp)
        cluster = Cluster(cfg)
    if rescan:
        # nothing is buffered yet, and the network dispatches through the
        # instance, so swapping the class swaps the whole drain
        for site in cluster.sites:
            site.__class__ = RescanSite
    wl = generate(
        WorkloadConfig(
            n_sites=n,
            ops_per_site=20,
            write_rate=write_rate,
            placement=cluster.placement,
            seed=seed ^ 0xBEEF,
        )
    )
    # Paper-literal reads may return stale values (that is what the
    # library's read path exists to prevent), so only strict runs are
    # held to the causal checker; equivalence itself is checked by the
    # caller on the raw histories either way.
    result = cluster.run(wl, check=strict)
    if strict:
        assert result.ok
    return result


def assert_equivalent(protocol, n, q, p, seed, write_rate, strict, batch):
    rescan = run_once(protocol, n, q, p, seed, write_rate, strict, batch, True)
    index = run_once(protocol, n, q, p, seed, write_rate, strict, batch, False)
    assert op_fingerprint(index.history) == op_fingerprint(rescan.history)
    assert apply_fingerprint(index.history) == apply_fingerprint(rescan.history)
    assert index.metrics.total_messages == rescan.metrics.total_messages


@st.composite
def drain_params(draw, partial):
    n = draw(st.integers(min_value=2, max_value=6))
    q = draw(st.integers(min_value=1, max_value=12))
    p = draw(st.integers(min_value=1, max_value=n)) if partial else n
    seed = draw(st.integers(min_value=0, max_value=2**31))
    write_rate = draw(st.floats(min_value=0.05, max_value=1.0))
    strict = draw(st.booleans())
    batch = draw(st.booleans())
    return n, q, p, seed, write_rate, strict, batch


@pytest.mark.parametrize("protocol", PARTIAL)
class TestPartialReplicationEquivalence:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=drain_params(partial=True))
    def test_identical_histories(self, protocol, params):
        assert_equivalent(protocol, *params)


@pytest.mark.parametrize("protocol", FULL)
class TestFullReplicationEquivalence:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=drain_params(partial=False))
    def test_identical_histories(self, protocol, params):
        assert_equivalent(protocol, *params)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("batch", [False, True])
def test_fixed_seed_matrix(protocol, strict, batch):
    """A deterministic pass over the full protocol x read path x
    batching grid, so every cell is exercised on every run (hypothesis explores
    the space but does not guarantee coverage of each combination)."""
    n = 5
    p = 2 if protocol in PARTIAL else n
    assert_equivalent(protocol, n, 8, p, 1234, 0.4, strict, batch)

"""The runtime causal sanitizer: quiet on correct protocols, loud on
deliberately broken ones, with a replayable trace attached."""

import numpy as np
import pytest

from repro.core.base import ProtocolConfig
from repro.core.messages import OptTrackMeta, UpdateMessage
from repro.core.opt_track import OptTrackProtocol
from repro.errors import SanitizerViolation
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.types import WriteId
from repro.verify.sanitizer import CausalSanitizer, CausalTrace


# ----------------------------------------------------------------------
# mutant protocols
# ----------------------------------------------------------------------
class EagerApplyProtocol(OptTrackProtocol):
    """Activation predicate disabled: applies every update on receipt."""

    name = "sanitizer-eager"

    def can_apply(self, msg):
        return True

    def blocking_deps(self, msg):
        return ()

    def apply_update(self, msg):
        meta = msg.meta
        self._store_value(msg.var, msg.value, msg.write_id)
        if meta.clock > self.apply_clocks[msg.sender]:
            self.apply_clocks[msg.sender] = meta.clock
        stored = meta.log.copy()
        stored.add(msg.sender, meta.clock, meta.replicas_mask)
        stored.remove_site(self.site)
        self.last_write_on[msg.var] = stored


class NoCondition1Protocol(OptTrackProtocol):
    """Skips the Condition-1 prune (Alg. 2 lines 29-30): the stored log
    keeps records naming the applying site itself."""

    name = "sanitizer-nocond1"

    def apply_update(self, msg):
        super().apply_update(msg)
        meta = msg.meta
        stored = self.last_write_on.get(msg.var)
        if stored is not None:
            # resurrect the self-naming record the prune removed — this is
            # exactly what the log looks like when lines 29-30 are skipped
            stored.add(msg.sender, meta.clock, meta.replicas_mask)


class NoCondition2Protocol(OptTrackProtocol):
    """Skips the per-destination Condition-2 prune (Alg. 2 lines 3-8):
    piggybacks the full unpruned log on every copy."""

    name = "sanitizer-nocond2"

    def write(self, var, value):
        unpruned = self.log.copy()  # the log before lines 3-12 run
        result = super().write(var, value)
        reps_mask = self.replica_mask(var)
        result.messages = [
            UpdateMessage(
                m.var,
                m.value,
                m.write_id,
                m.sender,
                m.dest,
                OptTrackMeta(m.meta.clock, reps_mask, unpruned.copy()),
            )
            for m in result.messages
        ]
        return result


def swap_in(cluster, proto_cls, **kwargs):
    for i, site in enumerate(cluster.sites):
        broken = proto_cls(
            ProtocolConfig(
                n=cluster.n_sites, site=i, replicas_of=cluster.placement
            ),
            **kwargs,
        )
        site.protocol = broken
        cluster.protocols[i] = broken
    return cluster


def racy_cluster(proto_cls):
    """3 sites; site 1 relays causality from 0 to 2 over a fast path while
    the original update crawls the slow 0->2 link."""
    base = np.array(
        [
            [0.0, 1.0, 100.0],
            [1.0, 0.0, 1.0],
            [100.0, 1.0, 0.0],
        ]
    )
    cluster = Cluster(
        ClusterConfig(
            n_sites=3,
            n_variables=2,
            protocol="opt-track",
            placement={"x": (0, 1, 2), "y": (1, 2)},
            latency=MatrixLatency(base, jitter_sigma=0.0),
            seed=1,
            sanitize=True,
        )
    )
    return swap_in(cluster, proto_cls)


class TestMutantsCaught:
    def test_eager_apply_is_unsafe_activation(self):
        cluster = racy_cluster(EagerApplyProtocol)
        cluster.session(0).write("x", "cause")
        cluster.sim.run(until=10.0)  # deliver 0->1 (fast), not 0->2 (slow)
        assert cluster.session(1).read("x") == "cause"
        cluster.session(1).write("y", "effect")
        # y reaches site 2 in ~1ms; x is still ~100ms out.  A correct
        # protocol buffers y; the eager mutant applies it immediately.
        with pytest.raises(SanitizerViolation, match="unsafe activation"):
            cluster.settle()

    def test_eager_apply_violation_carries_replayable_trace(self):
        cluster = racy_cluster(EagerApplyProtocol)
        cluster.session(0).write("x", "cause")
        cluster.sim.run(until=10.0)
        cluster.session(1).read("x")
        cluster.session(1).write("y", "effect")
        with pytest.raises(SanitizerViolation) as exc_info:
            cluster.settle()
        trace = exc_info.value.trace
        assert isinstance(trace, CausalTrace)
        kinds = [e.kind for e in trace.events]
        # the full causal story is replayable: both writes, the relaying
        # read, and the offending apply are all present, in order
        assert kinds.count("write") == 2
        assert "read" in kinds
        assert kinds[-1] == "apply"
        assert "causal trace" in str(exc_info.value)

    def test_skipped_condition1_prune_caught(self):
        cluster = Cluster(
            ClusterConfig(
                n_sites=3,
                n_variables=2,
                protocol="opt-track",
                placement={"x": (0, 1), "y": (1, 2)},
                seed=1,
                sanitize=True,
            )
        )
        swap_in(cluster, NoCondition1Protocol)
        cluster.session(0).write("x", "v")
        with pytest.raises(SanitizerViolation, match="Condition 1"):
            cluster.settle()

    def test_skipped_condition2_prune_caught(self):
        cluster = Cluster(
            ClusterConfig(
                n_sites=3,
                n_variables=2,
                protocol="opt-track",
                placement={"x": (0, 1, 2), "y": (0, 1)},
                seed=1,
                sanitize=True,
            )
        )
        swap_in(cluster, NoCondition2Protocol)
        # first write seeds the log; the second one piggybacks it unpruned,
        # so its copy to site 1 still names site 2 (a replica of x covered
        # transitively by this very update)
        cluster.session(0).write("x", "first")
        cluster.settle()
        cluster.session(0).write("x", "second")
        with pytest.raises(SanitizerViolation, match="Condition 2"):
            cluster.settle()


class TestQuietOnCorrectProtocols:
    @pytest.mark.parametrize(
        "protocol,kwargs",
        [
            ("opt-track", {}),
            ("opt-track", {"protocol_kwargs": {"distributed_prune": True}}),
            ("full-track", {}),
        ],
    )
    def test_interactive_chain(self, protocol, kwargs):
        cluster = Cluster(
            ClusterConfig(
                n_sites=4,
                n_variables=4,
                protocol=protocol,
                replication_factor=2,
                seed=3,
                sanitize=True,
                **kwargs,
            )
        )
        var = cluster.variables[0]
        writer = cluster.placement[var][0]
        for i in range(3):
            cluster.session(writer).write(var, i)
        cluster.settle()
        for s in range(4):
            assert cluster.session(s).read(var) == 2
        cluster.settle()
        assert cluster.sanitizer.checks_run > 0

    def test_distributed_prune_skips_condition2(self):
        # the variant deliberately ships the unpruned shared log; the
        # sanitizer must not call that a Condition-2 violation
        cluster = Cluster(
            ClusterConfig(
                n_sites=3,
                n_variables=1,
                protocol="opt-track",
                placement={"x": (0, 1, 2)},
                seed=1,
                sanitize=True,
                protocol_kwargs={"distributed_prune": True},
            )
        )
        cluster.session(0).write("x", "a")
        cluster.settle()
        cluster.session(0).write("x", "b")
        cluster.settle()
        assert cluster.session(2).read("x") == "b"


class TestSanitizerUnit:
    def _proto(self, n=2, site=0):
        return OptTrackProtocol(
            ProtocolConfig(n=n, site=site, replicas_of={"x": (0, 1)})
        )

    def test_monotonicity_rejects_replay(self):
        san = CausalSanitizer(2)
        receiver = self._proto(site=1)
        wid = WriteId(0, 1)
        san.on_write(0, "x", wid, dests=(0, 1), applied_locally=True)
        meta = OptTrackMeta(1, 0b11, receiver.log.copy())
        msg = UpdateMessage("x", "v", wid, 0, 1, meta)
        san.before_apply(receiver, msg)
        san.after_apply(receiver, msg)
        with pytest.raises(SanitizerViolation, match="monotonicity"):
            san.before_apply(receiver, msg)

    def test_unknown_write_is_not_checked(self):
        # writes injected outside the session API have no shadow; the
        # oracle stays silent rather than guessing
        san = CausalSanitizer(2)
        receiver = self._proto(site=1)
        meta = OptTrackMeta(1, 0b11, receiver.log.copy())
        msg = UpdateMessage("x", "v", WriteId(0, 1), 0, 1, meta)
        san.before_apply(receiver, msg)
        san.after_apply(receiver, msg)

    def test_trace_format_tail(self):
        trace = CausalTrace()
        san = CausalSanitizer(2)
        for i in range(5):
            san.on_write(0, "x", WriteId(0, i + 1), dests=(0,), applied_locally=True)
        text = san.trace.format(tail=3)
        assert "earlier events" in text
        assert len(san.trace) == 10  # 5 writes + 5 local applies
        assert trace.format() == ""

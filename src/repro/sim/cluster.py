"""The cluster facade: everything wired together.

:class:`Cluster` builds the full simulated system — placement, topology,
network, one protocol instance + application process per site, metrics,
history — from a :class:`ClusterConfig`, and offers two driving styles:

* **interactive sessions** (:meth:`Cluster.session`) for quickstart-style
  use: ``write`` returns immediately, ``read`` transparently runs the event
  loop until a remote fetch completes, :meth:`Cluster.settle` drains all
  in-flight updates;
* **workload runs** (:meth:`Cluster.run` / :func:`run_workload`) for
  experiments: per-site operation scripts executed concurrently under the
  simulated WAN, returning a :class:`RunResult` with metrics, the recorded
  history, and a causal-consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import CausalProtocol, ProtocolConfig, protocol_class
from repro.core.observe import observe
from repro.errors import ConfigurationError, DeadlockError
from repro.metrics.collector import MetricsCollector, MetricsSummary
from repro.metrics.sizes import SizeModel
from repro.obs.recorder import TraceRecorder
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.events import Tracer
from repro.sim.latency import LatencyModel, make_latency
from repro.sim.network import Network
from repro.sim.process import AppProcess
from repro.sim.site import SimSite
from repro.sim.topology import Topology
from repro.store.placement import Placement, make_placement
from repro.types import Operation, SiteId, VarId, WriteId
from repro.verify.checker import CheckReport, check_history
from repro.verify.history import History


@dataclass
class ClusterConfig:
    """Everything needed to build a simulated cluster."""

    n_sites: int
    n_variables: int = 50
    protocol: str = "opt-track"
    #: replicas per variable; None = protocol default (n for
    #: full-replication protocols, min(3, n) otherwise)
    replication_factor: Optional[int] = None
    #: explicit placement map; overrides strategy/replication_factor
    placement: Optional[Placement] = None
    placement_strategy: str = "round-robin"
    topology: Optional[Topology] = None
    #: latency spec (model, float, name); None = topology model if a
    #: topology is set, else 1 ms constant
    latency: Any = None
    jitter_sigma: float = 0.1
    seed: int = 0
    #: mean think time between a process's operations (ms)
    think_time: float = 1.0
    think_jitter: bool = True
    record_history: bool = True
    #: tracing: False (off, the zero-cost default), True (in-memory — the
    #: legacy operation Tracer plus a repro.obs lifecycle TraceRecorder,
    #: both reachable on the built Cluster), or a path string/Path (all of
    #: the above, and the lifecycle records are flushed to that file as
    #: JSONL at the end of the run — atomic rename, replayable via
    #: ``repro-sim trace`` / repro.obs.replay)
    trace: Any = False
    size_model: SizeModel = field(default_factory=SizeModel)
    #: extra keyword arguments for the protocol constructor
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: probe control-state space every this many completed events in
    #: workload runs (None = only at start/end)
    space_probe_every: Optional[int] = 500
    #: coalesce updates per destination within this window (ms); None
    #: (default) sends one message per update, as the paper counts
    batch_window: Optional[float] = None
    #: attach the runtime causal sanitizer: a Full-Track matrix-clock
    #: oracle shadow-runs beside the protocol, asserting activation
    #: safety, the KS optimality conditions and per-sender monotonicity
    #: on every apply (raises SanitizerViolation with a replayable causal
    #: trace).  Debugging/property-testing aid — adds an O(n^2) matrix
    #: copy per write; never enable when benchmarking.
    sanitize: bool = False

    def resolved_replication_factor(self) -> int:
        cls = protocol_class(self.protocol)
        if cls.full_replication_only:
            if self.replication_factor not in (None, self.n_sites):
                raise ConfigurationError(
                    f"protocol {self.protocol!r} requires full replication "
                    f"(p = n = {self.n_sites}), got p={self.replication_factor}"
                )
            return self.n_sites
        if self.replication_factor is None:
            return min(3, self.n_sites)
        return self.replication_factor


@dataclass
class RunResult:
    """Outcome of one workload run."""

    config: ClusterConfig
    metrics: MetricsSummary
    history: Optional[History]
    sim_time: float
    check_report: Optional[CheckReport] = None
    #: concurrent-overwrite conflicts observed across all sites (0 for
    #: protocols whose metadata cannot decide concurrency)
    conflicts: int = 0

    @property
    def ok(self) -> bool:
        return self.check_report is None or self.check_report.ok


class Session:
    """Interactive client bound to one site (see module docstring)."""

    def __init__(self, cluster: "Cluster", site: SiteId) -> None:
        self.cluster = cluster
        self.site = site

    def write(self, var: VarId, value: Any) -> WriteId:
        """Write ``var``; the update multicast is in flight on return."""
        c = self.cluster
        sim_site = c.sites[self.site]
        result = sim_site.protocol.write(var, value)
        sim_site.broadcast_write(result, var, value)
        sim_site.drain()
        c.metrics.on_op("write", 0.0)
        return result.write_id

    def read(self, var: VarId) -> Any:
        """Read ``var``; runs the event loop if a remote fetch is needed."""
        value, _ = self.read_versioned(var)
        return value

    def read_versioned(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        """Read ``var`` returning ``(value, producing write id)``."""
        c = self.cluster
        sim_site = c.sites[self.site]
        proto = sim_site.protocol
        started = c.sim.now
        if proto.locally_replicates(var):
            kind = "read-local"
            if not proto.can_read_local(var):
                # local replica lags our causal past: drain until it's safe
                c.sim.run(stop_when=lambda: proto.can_read_local(var))
                if not proto.can_read_local(var):
                    raise DeadlockError(
                        f"local read of {var!r} at site {self.site} blocked "
                        f"forever: a causally required update never arrived"
                    )
            value, write_id = proto.read_local(var)
        else:
            kind = "read-remote"
            server = proto.fetch_target(var, c.nearest_replica(self.site, var))
            box: List[Tuple[Any, Optional[WriteId]]] = []
            sim_site.remote_read(var, server, lambda *read: box.append(read))
            c.sim.run(stop_when=lambda: bool(box))
            if not box:
                raise DeadlockError(
                    f"remote read of {var!r} from site {self.site} never "
                    f"completed (server {server} unreachable or "
                    f"dependencies unmet)"
                )
            value, write_id = box[0]
        sim_site.observe_read(var, value, write_id)
        c.metrics.on_op(kind, c.sim.now - started)
        return value, write_id

    def read_snapshot(
        self, variables: Sequence[VarId]
    ) -> Dict[VarId, Tuple[Any, Optional[WriteId]]]:
        """Read several *locally replicated* variables as one causally
        consistent snapshot.

        The site's applied state is always a causal cut over the variables
        it replicates (the activation predicate applies updates in causal
        order), so reading them at a single simulated instant — after the
        local-read gate clears for all of them — yields mutually
        consistent values: no returned value is causally overwritten by a
        write in another returned value's past.  Remote variables are not
        supported (a cross-site snapshot needs COPS-GT-style per-key
        dependency tracking; see DESIGN.md's scope notes) — pass only
        variables replicated at this session's site.
        """
        c = self.cluster
        sim_site = c.sites[self.site]
        proto = sim_site.protocol
        missing = [v for v in variables if not proto.locally_replicates(v)]
        if missing:
            raise ConfigurationError(
                f"snapshot reads must be local; site {self.site} does not "
                f"replicate {missing}"
            )

        def all_safe() -> bool:
            return all(proto.can_read_local(v) for v in variables)

        if not all_safe():
            c.sim.run(stop_when=all_safe)
            if not all_safe():
                raise DeadlockError(
                    f"snapshot at site {self.site} blocked forever: a "
                    f"causally required update never arrived"
                )
        out: Dict[VarId, Tuple[Any, Optional[WriteId]]] = {}
        for var in variables:  # one instant: no events run between reads
            value, wid = proto.read_local(var)
            sim_site.observe_read(var, value, wid)
            c.metrics.on_op("read-local", 0.0)
            out[var] = (value, wid)
        return out


class Cluster:
    """A fully wired simulated causal store."""

    def __init__(self, config: Optional[ClusterConfig] = None, **kwargs: Any) -> None:
        if config is None:
            config = ClusterConfig(**kwargs)
        elif kwargs:
            raise ConfigurationError("pass either a ClusterConfig or kwargs, not both")
        self.config = config
        n = config.n_sites
        if n <= 0:
            raise ConfigurationError(f"need n >= 1 sites, got {n}")

        p = config.resolved_replication_factor()
        if config.placement is not None:
            self.placement: Placement = dict(config.placement)
        else:
            distance = None
            if config.topology is not None:
                distance = config.topology.delay
            self.placement = make_placement(
                config.placement_strategy,
                n,
                config.n_variables,
                p,
                seed=config.seed,
                distance=distance,
            )
        self.variables: List[VarId] = list(self.placement)

        # deterministic RNG streams: one for the network, one per site
        root = np.random.default_rng(config.seed)
        self._net_rng = np.random.default_rng(root.integers(2**63))
        self._site_rngs = [np.random.default_rng(root.integers(2**63)) for _ in range(n)]

        self.sim = Simulator()
        self.metrics = MetricsCollector(config.size_model)
        self.history: Optional[History] = History(n) if config.record_history else None
        self.tracer: Optional[Tracer] = Tracer() if config.trace else None
        #: cluster-wide repro.obs metrics registry; populated by
        #: :meth:`publish_metrics` (run() does it automatically)
        self.registry = MetricsRegistry()
        #: repro.obs lifecycle recorder (None while tracing is off)
        self.recorder: Any = None
        if config.trace:
            trace_path = None if config.trace is True else str(config.trace)
            self.recorder = TraceRecorder(
                path=trace_path,
                meta={
                    "n_sites": n,
                    "protocol": config.protocol,
                    "seed": config.seed,
                },
            )

        latency: LatencyModel
        if config.latency is not None:
            latency = make_latency(config.latency)
        elif config.topology is not None:
            latency = config.topology.latency_model(config.jitter_sigma)
        else:
            latency = make_latency(None)
        self.network = Network(self.sim, latency, self._net_rng, self.metrics)

        self.sanitizer = None
        if config.sanitize:
            from repro.verify.sanitizer import CausalSanitizer

            self.sanitizer = CausalSanitizer(n)

        proto_cls = protocol_class(config.protocol)
        self.protocols: List[CausalProtocol] = []
        self.sites: List[SimSite] = []
        for i in range(n):
            pc = ProtocolConfig(n=n, site=i, replicas_of=self.placement)
            proto = proto_cls(pc, **config.protocol_kwargs)
            self.protocols.append(proto)
            self.sites.append(
                SimSite(
                    proto,
                    self.sim,
                    self.network,
                    self.metrics,
                    batch_window=config.batch_window,
                )
            )
        self.attach_observers()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def attach_observers(self) -> None:
        """(Re)build the one observation seam over :attr:`sanitizer`,
        :attr:`history`, :attr:`tracer` and :attr:`recorder` (``None``
        ones left out) and hand it to every emitter: the sites, the
        network and the protocols (prunes, stamped with the simulation
        clock).  Call it after replacing any of the four."""
        obs = observe(self.sanitizer, self.history, self.tracer, self.recorder)
        if obs is not None:
            obs.bind_clock(lambda: self.sim.now)
        self.network.obs = obs
        for site in self.sites:
            site.obs = obs
        for proto in self.protocols:
            proto.obs = obs

    def close_trace(self) -> Optional[str]:
        """Flush the lifecycle trace to its JSONL sink, if one was
        configured; idempotent.  Returns the written path, or None."""
        if self.recorder is None:
            return None
        return self.recorder.close()

    def publish_metrics(self) -> None:
        """Publish end-of-run telemetry into :attr:`registry` — collector
        aggregates, sanitizer totals, scheduler and network counters, and
        per-site buffer/apply state.  Call once per run (``run()`` already
        does); counters accumulate across calls by design."""
        reg = self.registry
        proto = self.config.protocol
        self.metrics.publish(reg, protocol=proto)
        if self.sanitizer is not None:
            self.sanitizer.publish(reg, protocol=proto)
        stats = self.sim.stats()
        reg.gauge("sim_time_ms", protocol=proto).set(stats["now"])
        reg.counter("sim_events_total", protocol=proto).inc(
            stats["events_processed"]
        )
        net = self.network
        reg.counter("net_messages_sent_total", protocol=proto).inc(net.messages_sent)
        reg.counter("net_messages_delivered_total", protocol=proto).inc(
            net.messages_delivered
        )
        reg.counter("net_messages_dropped_total", protocol=proto).inc(
            net.messages_dropped
        )
        reg.counter("net_messages_held_total", protocol=proto).inc(
            net.messages_held
        )
        for site in self.sites:
            reg.counter(
                "site_updates_sent_total", protocol=proto, site=site.site
            ).inc(site.updates_sent)
            reg.counter(
                "site_updates_applied_total", protocol=proto, site=site.site
            ).inc(site.updates_applied)
            reg.gauge(
                "site_pending_updates", protocol=proto, site=site.site
            ).set(len(site.pending_updates))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return self.config.n_sites

    def nearest_replica(self, site: SiteId, var: VarId) -> Optional[SiteId]:
        """Topologically nearest replica of ``var`` from ``site`` (used as
        the predesignated fetch target)."""
        reps = self.placement.get(var)
        if not reps:
            return None
        topo = self.config.topology
        if topo is None:
            return None
        return min(reps, key=lambda r: (topo.delay(site, r), r))

    def session(self, site: SiteId) -> Session:
        if not (0 <= site < self.n_sites):
            raise ConfigurationError(f"site {site} out of range")
        return Session(self, site)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def settle(self, max_events: Optional[int] = None, strict: bool = True) -> int:
        """Run the event loop until quiescent; raise
        :class:`~repro.errors.DeadlockError` if buffered work remains."""
        fired = self.sim.run(max_events=max_events)
        if strict:
            self.assert_quiescent()
        return fired

    def assert_quiescent(self) -> None:
        stuck = [s for s in self.sites if not s.quiescent]
        if stuck:
            detail = ", ".join(
                f"site {s.site}: {len(s.pending_updates)} updates, "
                f"{len(s.pending_fetches)} fetches, "
                f"{len(s._fetch_waiters)} outstanding reads"
                for s in stuck
            )
            raise DeadlockError(f"simulation quiesced with pending work: {detail}")

    def run(
        self,
        workload: Sequence[Sequence[Operation]],
        check: bool = True,
        settle: bool = True,
    ) -> RunResult:
        """Execute per-site operation scripts concurrently.

        ``workload[i]`` is site ``i``'s operation sequence (empty for idle
        sites).  Returns a :class:`RunResult`; when ``check`` is on and
        history recording is enabled, the causal-consistency checker runs
        and raises on violations.
        """
        if len(workload) != self.n_sites:
            raise ConfigurationError(
                f"workload has {len(workload)} scripts for {self.n_sites} sites"
            )
        processes = [
            AppProcess(
                self.sites[i],
                workload[i],
                self._site_rngs[i],
                think_time=self.config.think_time,
                think_jitter=self.config.think_jitter,
                fetch_preference=(lambda i: (lambda var: self.nearest_replica(i, var)))(i),
            )
            for i in range(self.n_sites)
        ]
        for proc in processes:
            proc.start()

        self.metrics.probe_space(self.protocols)
        probe_every = self.config.space_probe_every
        while True:
            fired = self.sim.run(max_events=probe_every)
            if probe_every is not None:
                self.metrics.probe_space(self.protocols)
            if fired == 0 or (probe_every is not None and fired < probe_every):
                break
        unfinished = [p for p in processes if not p.done]
        if unfinished:
            raise DeadlockError(
                f"{len(unfinished)} processes never finished: "
                + ", ".join(repr(p) for p in unfinished[:5])
            )
        if settle:
            self.settle()
        self.metrics.probe_space(self.protocols)

        self.publish_metrics()
        self.close_trace()

        report: Optional[CheckReport] = None
        if check and self.history is not None:
            report = check_history(self.history, self.placement)
        return RunResult(
            config=self.config,
            metrics=self.metrics.summary(self.sim.now),
            history=self.history,
            sim_time=self.sim.now,
            check_report=report,
            conflicts=sum(p.conflicts_detected for p in self.protocols),
        )


def run_workload(
    config: ClusterConfig,
    workload: Sequence[Sequence[Operation]],
    check: bool = True,
) -> RunResult:
    """Build a cluster from ``config``, run ``workload``, return the result."""
    return Cluster(config).run(workload, check=check)

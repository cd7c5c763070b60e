"""Closed-loop load generator for the KV service.

One :class:`LoadGenerator` drives a YCSB workload (:mod:`repro.workload.
ycsb`) against a running cluster: per site, one client session (home =
that site) executes its generated operation script **closed-loop** — the
next operation is issued only after the previous one completed — which is
the paper's one-application-process-per-site model and keeps throughput a
direct measure of service latency.

Every request is timed into per-operation latency histograms on a
:class:`~repro.obs.registry.MetricsRegistry` (wall-clock milliseconds on
the shared ``DEFAULT_TIME_BUCKETS_MS`` ladder), and the summary reports
throughput plus p50/p99 from those same histograms — the single metrics
pipeline shared with the simulator, so ``repro-kv bench`` output merges
and diffs like any other registry snapshot.

A site killed mid-run surfaces here as failovers, not failures: the
clients retry with backoff and degrade to surviving replicas; only
requests that exhausted every candidate are counted as errors.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceUnavailableError
from repro.obs.registry import MetricsRegistry
from repro.service.harness import ServiceCluster
from repro.types import Operation, SiteId
from repro.workload.ycsb import ycsb


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    ops: int
    errors: int
    elapsed_s: float
    #: requests that succeeded only after failing over off the home site
    failovers: int
    latency_ms: Dict[str, Dict[str, Optional[float]]] = field(default_factory=dict)
    served_by: Dict[SiteId, int] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def format(self) -> str:
        lines = [
            f"ops        {self.ops} ({self.errors} errors, "
            f"{self.failovers} failovers)",
            f"elapsed    {self.elapsed_s * 1000.0:.1f} ms",
            f"throughput {self.ops_per_s:.1f} ops/s",
        ]
        for op in sorted(self.latency_ms):
            q = self.latency_ms[op]
            lines.append(
                f"{op:<10} p50 {_fmt(q['p50'])}  p99 {_fmt(q['p99'])}  "
                f"mean {_fmt(q['mean'])}  (n={q['count']})"
            )
        if self.served_by:
            share = ", ".join(
                f"s{s}:{c}" for s, c in sorted(self.served_by.items())
            )
            lines.append(f"served by  {share}")
        return "\n".join(lines)


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.2f}ms"


class LoadGenerator:
    """Drive a YCSB workload against ``cluster`` (see module docstring)."""

    def __init__(
        self,
        cluster: ServiceCluster,
        *,
        workload: str = "a",
        ops_per_site: int = 50,
        zipf_s: float = 0.99,
        value_size: int = 0,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        client_kwargs: Optional[Dict[str, Any]] = None,
        sessions: int = 1,
    ) -> None:
        self.cluster = cluster
        #: concurrent client sessions per site.  1 is the paper's
        #: one-application-process-per-site model; more make the servers
        #: see overlapping requests (which is what gives frame batching
        #: something to coalesce).  Each session stays closed-loop; a
        #: site's script is stride-split across its sessions, keeping
        #: the key mix per session.
        self.sessions = max(1, int(sessions))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scripts: List[List[Operation]] = ycsb(
            workload,
            cluster.n,
            cluster.variables,
            ops_per_site=ops_per_site,
            zipf_s=zipf_s,
            seed=seed,
            value_size=value_size,
        )
        self.client_kwargs = dict(client_kwargs or {})
        self.errors = 0
        #: operations finished so far, across all driver sessions — lets a
        #: chaos harness trigger failures mid-run rather than on a timer
        self.completed = 0
        self.total_ops = sum(len(s) for s in self.scripts)

    async def run(self) -> LoadReport:
        loop = asyncio.get_running_loop()
        drivers: List[Tuple[Any, SiteId, List[Operation]]] = []
        clients: List[Any] = []
        for site, script in enumerate(self.scripts):
            k = min(self.sessions, len(script)) or 1
            for i in range(k):
                client = self.cluster.client(
                    home=site, metrics=self.metrics, **self.client_kwargs
                )
                clients.append(client)
                drivers.append((client, site, script[i::k]))
        started = loop.time()
        try:
            done = await asyncio.gather(
                *(
                    self._drive(client, site, chunk)
                    for client, site, chunk in drivers
                )
            )
        finally:
            for client in clients:
                await client.close()
        elapsed = loop.time() - started
        served: Dict[SiteId, int] = {}
        failovers = 0
        for client in clients:
            failovers += client.failovers
            for s, c in client.served_by.items():
                served[s] = served.get(s, 0) + c
        latency: Dict[str, Dict[str, Optional[float]]] = {}
        for op in ("put", "get"):
            hist = self.metrics.histogram("service_latency_ms", op=op)
            latency[op] = {
                "p50": hist.quantile(0.5),
                "p99": hist.quantile(0.99),
                "mean": hist.mean if hist.count else None,
                "count": hist.count,
            }
        return LoadReport(
            ops=sum(done),
            errors=self.errors,
            elapsed_s=elapsed,
            failovers=failovers,
            latency_ms=latency,
            served_by=served,
        )

    async def _drive(self, client: Any, site: SiteId, script: List[Operation]) -> int:
        loop = asyncio.get_running_loop()
        completed = 0
        for op in script:
            kind = "put" if op.kind.name == "WRITE" else "get"
            t0 = loop.time()
            try:
                if kind == "put":
                    await client.put(op.var, op.value)
                else:
                    await client.get(op.var)
            except ServiceUnavailableError:
                self.errors += 1
                self.completed += 1
                self.metrics.counter("service_request_errors_total", op=kind).inc()
                continue
            self.metrics.histogram("service_latency_ms", op=kind).observe(
                (loop.time() - t0) * 1000.0
            )
            completed += 1
            self.completed += 1
        return completed


__all__ = ["LoadGenerator", "LoadReport"]

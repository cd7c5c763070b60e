"""Availability extension — the paper's Section V failover rule.

    "In our algorithms for partially replicated systems, a read may be
    non-local.  This can affect availability if the process read-from is
    down.  If a non-local read does not respond in a timeout period, then
    a secondary process is contacted.  This provides better availability
    in light of the CAP Theorem."

:class:`FailoverReader` performs a remote read with a timeout; on expiry it
abandons the outstanding fetch and retries against the next replica in
preference order (nearest-first when a topology is configured), walking the
replica list until one answers or all are exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.cluster import Cluster
from repro.types import SiteId, VarId, WriteId


@dataclass
class ReadOutcome:
    """Result of one failover read."""

    value: Any
    write_id: Optional[WriteId]
    served_by: SiteId
    attempts: int
    #: servers tried unsuccessfully before the one that answered
    failed_over: List[SiteId] = field(default_factory=list)
    elapsed: float = 0.0


class FailoverReader:
    """Reads with timeout + secondary-replica failover for one client site."""

    def __init__(self, cluster: Cluster, site: SiteId, timeout: float = 20.0) -> None:
        self.cluster = cluster
        self.site = site
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _server_order(self, var: VarId) -> List[SiteId]:
        reps = list(self.cluster.placement[var])
        topo = self.cluster.config.topology
        if topo is not None:
            reps.sort(key=lambda r: (topo.delay(self.site, r), r))
        return reps

    def read(self, var: VarId) -> ReadOutcome:
        """Read ``var``; local if replicated here, otherwise remote with
        failover.  Raises :class:`~repro.errors.SimulationError` when every
        replica is unreachable."""
        c = self.cluster
        sim_site = c.sites[self.site]
        started = c.sim.now
        if sim_site.protocol.locally_replicates(var):
            # the session read: held by the local-read gate like any other
            value, wid = c.session(self.site).read_versioned(var)
            return ReadOutcome(value, wid, self.site, attempts=1)

        failed: List[SiteId] = []
        servers = [s for s in self._server_order(var) if s != self.site]
        for attempt, server in enumerate(servers, start=1):
            outcome = self._try_server(var, server)
            if outcome is not None:
                value, wid = outcome
                sim_site.observe_read(var, value, wid)
                return ReadOutcome(
                    value,
                    wid,
                    served_by=server,
                    attempts=attempt,
                    failed_over=failed,
                    elapsed=c.sim.now - started,
                )
            failed.append(server)
        raise SimulationError(
            f"read of {var!r} from site {self.site} failed: no replica of "
            f"{servers} answered within {self.timeout} ms each"
        )

    # ------------------------------------------------------------------
    def _try_server(
        self, var: VarId, server: SiteId
    ) -> Optional[Tuple[Any, Optional[WriteId]]]:
        c = self.cluster
        box: List[Tuple[Any, Optional[WriteId]]] = []
        timed_out: List[bool] = []
        # stale replies are re-fetched from the same server; the attempt
        # timeout still bounds the loop
        abandon = c.sites[self.site].remote_read(
            var, server, lambda *read: box.append(read)
        )
        handle = c.sim.schedule(self.timeout, lambda: timed_out.append(True))
        c.sim.run(stop_when=lambda: bool(box) or bool(timed_out))
        if box:
            handle.cancel()
            return box[0]
        # abandon the fetch: a late reply must not complete a newer read
        abandon()
        return None

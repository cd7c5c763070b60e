"""Assemble a whole service cluster in one process.

:class:`ServiceCluster` builds ``n`` :class:`~repro.service.server.
SiteServer` instances — one protocol state machine each, placement from
:mod:`repro.store.placement` — over a shared transport.  Over the
:class:`~repro.service.transport.LoopbackTransport` this gives a
socket-free cluster for unit tests, the ``repro-kv smoke`` gate, and
sanitizer shadow-checking: with ``sanitize=True`` a single
:class:`~repro.verify.sanitizer.CausalSanitizer` oracle observes every
site, so one process can assert causal safety across the whole cluster
while requests flow through the real server/client/wire code paths.

The harness also owns the chaos hooks (``kill_site`` severs a site the
way a crash would — listener gone, every established connection dropped,
in-flight frames lost) and :meth:`quiesce`, which waits for replication
to settle (all peer-link queues drained and parked updates applied at
the surviving sites) so tests can assert convergence without sleeps.

With a ``data_dir`` the cluster becomes durable: every site gets its own
``site-N`` subdirectory (WAL + snapshots, see
:mod:`repro.service.durability`), and :meth:`restart_site` brings a
killed site back *in place* — a fresh :class:`SiteServer` over the same
data directory recovers from its snapshot + WAL suffix, rejoins under a
bumped incarnation, and catches up at its links' handshakes: each peer
re-ships the writes it still owes the site, and the site re-ships its
own writes a peer lacks — every link resumes above the peer's ack (see
:mod:`repro.service.server`).
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, List, Optional

from repro.core.base import ProtocolConfig, protocol_class
from repro.errors import ServiceError
from repro.service import wire
from repro.service.client import KVClient
from repro.service.server import SiteServer
from repro.service.transport import LoopbackTransport, Transport
from repro.store.placement import Placement, default_variables, make_placement
from repro.types import SiteId


class ServiceCluster:
    """One co-hosted service cluster (loopback by default)."""

    def __init__(
        self,
        n_sites: int,
        n_variables: int,
        protocol: str = "opt-track",
        *,
        replication_factor: Optional[int] = None,
        placement: Optional[Placement] = None,
        placement_strategy: str = "round-robin",
        sanitize: bool = False,
        transport: Optional[Transport] = None,
        addresses: Optional[Dict[SiteId, str]] = None,
        recorder: Any = None,
        metrics: Any = None,
        read_timeout: float = 2.0,
        seed: int = 0,
        protocol_kwargs: Optional[Dict[str, Any]] = None,
        codec: str = "delta",
        server_cls: Optional[type] = None,
        flight_dir: Optional[str] = None,
        data_dir: Optional[str] = None,
        fsync: str = "group",
        snapshot_interval: Optional[float] = None,
    ) -> None:
        self.n = n_sites
        self.seed = seed
        if codec != "delta":
            # the keyword outlives the profiles it chose between only
            # because perf/ (frozen) still passes its one value
            raise wire.unsupported_version(codec, "ServiceCluster(codec=)")
        cls = protocol_class(protocol)
        p = replication_factor
        if p is None or cls.full_replication_only:
            p = n_sites
        if placement is None:
            placement = make_placement(
                placement_strategy, n_sites, n_variables, p, seed=seed
            )
        self.placement: Placement = placement
        self.variables = default_variables(n_variables)
        self.transport: Transport = transport or LoopbackTransport(metrics=metrics)
        self.addresses: Dict[SiteId, str] = addresses or {
            s: f"site-{s}" for s in range(n_sites)
        }
        self.metrics = metrics
        self.recorder = recorder
        self.sanitizer = None
        if sanitize:
            from repro.verify.sanitizer import CausalSanitizer

            self.sanitizer = CausalSanitizer(n_sites)
        kwargs = dict(protocol_kwargs or {})
        #: the server class to instantiate — tests substitute seeded
        #: mutants here (e.g. the schedule explorer's torn-drain server)
        #: to prove the sanitizer catches a specific interleaving bug
        self.server_cls: type = server_cls or SiteServer
        #: where site flight recorders dump post-mortems (None = ring
        #: only).  Passed through only when set, so substituted server
        #: classes with narrower signatures keep working.
        self.flight_dir = flight_dir
        #: durability root: each site persists under ``<data_dir>/site-N``
        #: (None = memory-only cluster, exactly the pre-durability shape)
        self.data_dir = data_dir
        self.fsync = fsync
        self.snapshot_interval = snapshot_interval
        # remembered so restart_site can rebuild a site from scratch
        self._protocol_cls = cls
        self._protocol_kwargs = kwargs
        self.read_timeout = read_timeout
        self._t0: Optional[float] = None
        self.servers: List[SiteServer] = []
        for site in range(n_sites):
            self.servers.append(self._make_server(site))
        self._started = False

    def _make_server(self, site: SiteId) -> SiteServer:
        """Build one site's server (used at construction and by
        :meth:`restart_site`).  Optional features travel as kwargs only
        when enabled, so substituted server classes with narrower
        signatures keep working."""
        proto = self._protocol_cls(
            ProtocolConfig(n=self.n, site=site, replicas_of=self.placement),
            **self._protocol_kwargs,
        )
        extra_kwargs: Dict[str, Any] = {}
        if self.flight_dir is not None:
            extra_kwargs["flight_dir"] = self.flight_dir
        if self.data_dir is not None:
            extra_kwargs["data_dir"] = os.path.join(
                self.data_dir, f"site-{int(site)}"
            )
            extra_kwargs["fsync"] = self.fsync
            if self.snapshot_interval is not None:
                extra_kwargs["snapshot_interval"] = self.snapshot_interval
        return self.server_cls(
            proto,
            self.addresses,
            self.transport,
            sanitizer=self.sanitizer,
            recorder=self.recorder,
            metrics=self.metrics,
            read_timeout=self.read_timeout,
            seed=self.seed + site,
            **extra_kwargs,
        )

    # ------------------------------------------------------------------
    async def start(self) -> "ServiceCluster":
        loop = asyncio.get_running_loop()
        t0 = self._t0 = loop.time()
        if self.recorder is not None:
            # one shared origin: spans from different sites stay ordered
            self.recorder.bind_clock(lambda: (loop.time() - t0) * 1000.0)
        for server in self.servers:
            server.set_clock_origin(t0)
            await server.start()
        self._started = True
        return self

    async def stop(self) -> None:
        for server in self.servers:
            await server.stop()
        if self.recorder is not None and self.metrics is not None:
            # stamp the transport-level byte totals into the trace
            # header so ``repro-sim trace`` can report wire cost
            counters = self.metrics.snapshot()["counters"]
            sent = sum(
                v for k, v in counters.items()
                if k.startswith("wire_bytes_sent_total")
            )
            received = sum(
                v for k, v in counters.items()
                if k.startswith("wire_bytes_received_total")
            )
            if sent or received:
                self.recorder.meta["wire_bytes"] = {
                    "sent": sent, "received": received
                }
        transport = self.transport
        if isinstance(transport, LoopbackTransport):
            await transport.close()
        self._started = False

    async def __aenter__(self) -> "ServiceCluster":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    def client(self, home: SiteId = 0, **kwargs: Any) -> KVClient:
        kwargs.setdefault("metrics", self.metrics)
        kwargs.setdefault("seed", self.seed + 1000 + home)
        return KVClient(
            self.addresses, self.placement, self.transport, home=home, **kwargs
        )

    def kill_site(self, site: SiteId) -> None:
        """Crash ``site``: sever its connections and stop its server.

        Loopback only — over TCP a crash is inflicted on the process (or
        via the ``kill`` chaos frame), not through the transport."""
        transport = self.transport
        if not isinstance(transport, LoopbackTransport):
            raise ServiceError("kill_site needs the loopback transport")
        # the crash post-mortem: dump the site's flight ring before its
        # state is torn down (a no-op unless ``flight_dir`` is set)
        self.servers[site].flight_dump("chaos-kill-site")
        transport.kill(self.addresses[site])
        asyncio.ensure_future(self.servers[site].stop())

    async def restart_site(self, site: SiteId) -> SiteServer:
        """Bring a killed site back in place from its data directory.

        A fresh :class:`SiteServer` opens the same WAL (which bumps the
        incarnation durably), recovers snapshot + suffix
        synchronously in its constructor, and starts listening on the
        site's old address.  Everything the site missed while dead — and
        every own write it still owes a peer — converges at the link
        handshakes; call :meth:`quiesce` to wait for it."""
        if self.data_dir is None:
            raise ServiceError("restart_site needs a durable cluster (data_dir)")
        old = self.servers[site]
        # stop() is idempotent; awaiting it here makes sure the dead
        # incarnation's WAL handle is closed before the new one opens
        await old.stop()
        server = self._make_server(site)
        if self._t0 is not None:
            server.set_clock_origin(self._t0)
        if self.servers[site] is not old:  # re-read: a concurrent restart
            raise ServiceError(f"site {site} was restarted concurrently")
        self.servers[site] = server
        await server.start()
        return server

    @property
    def live_sites(self) -> List[SiteId]:
        return [s.site for s in self.servers if not s.stopped]

    # ------------------------------------------------------------------
    async def quiesce(self, timeout: float = 5.0) -> None:
        """Wait until replication settles at every *live* site: all peer
        links between live sites drained (so no live site still owes a
        live peer an own write) and no parked update can apply.  Raises
        ``TimeoutError`` if the cluster does not settle.

        Soundness: a link's backlog is **ack-gated** — a repl frame
        counts until the receiving site has *processed* it (acks follow
        the apply/park, see :class:`~repro.service.server.PeerLink`), so
        an update can never be invisible to both the backlog and the
        receiver at once.  The queue is the site's own-write log for
        that peer, rebuilt by recovery, so a catch-up still to come can
        never look settled.  Settlement must additionally hold on two
        consecutive polls, covering any one-tick scheduling window."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout

        def settled() -> bool:
            live = set(self.live_sites)
            for server in self.servers:
                if server.site not in live:
                    continue
                for dest, link in server._links.items():
                    if dest in live and link.backlog:
                        return False
                if any(server.protocol.can_apply(m) for m in server._parked):
                    return False
            return True

        stable = 0
        while stable < 2:
            stable = stable + 1 if settled() else 0
            if stable >= 2:
                return
            if loop.time() > deadline:
                raise TimeoutError("service cluster failed to quiesce")
            await asyncio.sleep(0.005)


__all__ = ["ServiceCluster"]

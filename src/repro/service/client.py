"""Client library for the networked KV service.

:class:`KVClient` is one client *session*: it prefers a single **home
site** (session causality lives in that site's protocol state) and speaks
the wire protocol of :mod:`repro.service.wire` over any
:class:`~repro.service.transport.Transport`.

Failure handling, in order:

* **connection pooling** — one cached connection per site, rebuilt lazily
  after any failure;
* **per-request timeout** — a site that accepts the connection but never
  answers counts as unreachable;
* **bounded exponential backoff with jitter** between attempts (seeded
  ``numpy`` generator, so loopback tests are reproducible);
* **graceful degradation** — when the home site is unreachable (or
  answers with a retriable error), reads fail over to the other replicas
  of the key in placement order (:mod:`repro.store.placement`), writes to
  any replica of the key.  A degraded read is served from the surviving
  replica's own causally consistent state; what is traded away is session
  continuity with the dead home site, which is the paper's Section V
  availability argument.

Only after the whole candidate list fails ``max_rounds`` times does a
request surface :class:`~repro.errors.ServiceUnavailableError`.  Counters
and latency histograms go to an optional
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServiceUnavailableError, WireError
from repro.service import wire
from repro.service.transport import Connection, Transport
from repro.store.placement import Placement
from repro.types import SiteId, VarId, WriteId


class KVClient:
    """One client session against the service cluster (see module doc)."""

    def __init__(
        self,
        addresses: Dict[SiteId, str],
        placement: Placement,
        transport: Transport,
        *,
        home: SiteId = 0,
        timeout: float = 2.0,
        max_rounds: int = 3,
        backoff_base: float = 0.01,
        backoff_cap: float = 0.25,
        metrics: Any = None,
        seed: int = 0,
    ) -> None:
        self.addresses = dict(addresses)
        self.placement = placement
        self.transport = transport
        #: per-site intern table from the last ``hello.ok``
        self._itabs: Dict[SiteId, wire.InternTable] = {}
        self.home = home
        self.timeout = timeout
        self.max_rounds = max_rounds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.metrics = metrics
        #: counters :meth:`_metric` already resolved, by name and labels
        self._counters: Dict[Any, Any] = {}
        self._rng = np.random.default_rng(seed)
        self._conns: Dict[SiteId, Connection] = {}
        #: sites that served a request / failed one, for tests & CLI
        self.served_by: Dict[SiteId, int] = {}
        self.failovers = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    async def put(self, var: VarId, value: Any) -> WriteId:
        """Write ``var``; returns the id of the write."""
        reply = await self._request(
            wire.make_frame("put", var=var, value=value), self._candidates(var)
        )
        if type(reply) is wire.PutOk:
            wid = reply.write_id
        else:
            wid = wire.decode_write_id(reply["w"])
        assert wid is not None
        return wid

    async def get(self, var: VarId) -> Tuple[Any, Optional[WriteId], SiteId]:
        """Read ``var``; returns ``(value, write_id, served_by_site)``."""
        reply = await self._request(
            wire.make_frame("get", var=var), self._candidates(var)
        )
        if type(reply) is wire.GetOk:
            return reply
        return reply["value"], wire.decode_write_id(reply["w"]), int(reply["by"])

    async def ping(self, site: SiteId) -> bool:
        try:
            frame = await self._roundtrip(site, wire.make_frame("ping"))
        except (ConnectionError, OSError, asyncio.TimeoutError, WireError):
            return False
        return frame.get("t") == "ping.ok"

    async def kill(self, site: SiteId) -> bool:
        """Chaos helper: ask ``site`` to shut itself down."""
        try:
            frame = await self._roundtrip(site, wire.make_frame("kill"))
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return False
        return frame.get("t") == "kill.ok"

    async def stats(self, site: Optional[SiteId] = None) -> Dict[str, Any]:
        """One ``sys.stats`` snapshot from ``site`` (default: home).

        Raises :class:`ServiceUnavailableError` when the site refuses
        (it is shutting down); connection errors propagate for the
        caller's own failover policy."""
        target = self.home if site is None else site
        frame = await self._roundtrip(target, wire.make_frame("sys.stats"))
        if frame.get("t") != "sys.stats.ok":
            raise ServiceUnavailableError(
                f"site {target} refused sys.stats: "
                f"{frame.get('code')} ({frame.get('msg')})"
            )
        return frame["stats"]

    async def close(self) -> None:
        # take-then-clear: a request racing close() must not slip a new
        # pooled connection in between the closes and the clear
        conns = list(self._conns.values())
        self._conns.clear()
        for conn in conns:
            await conn.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _candidates(self, var: VarId) -> List[SiteId]:
        """Sites to try, in order: home first, then the replicas of the
        key.  Every candidate holds (or can serve) the key; the home site
        additionally holds this session's causal context."""
        order: List[SiteId] = [self.home]
        for site in self.placement.get(var, ()):
            if site not in order:
                order.append(site)
        return order

    def _metric(self, name: str, **labels: Any) -> None:
        """Count on ``name{**labels}``, resolving the series in the
        registry the first time only (see ``SiteServer.metric``)."""
        if self.metrics is None:
            return
        key = (name, *labels.items()) if labels else name
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.metrics.counter(name, **labels)
        counter.inc()

    async def _request(self, frame: Dict[str, Any], candidates: List[SiteId]) -> Any:
        """Send ``frame`` to the first candidate that answers non-retriably.

        Walks the candidate list ``max_rounds`` times with exponential
        backoff between attempts; raises ``ServiceUnavailableError`` when
        every attempt failed."""
        op = frame["t"]
        attempt = 0
        last_error = "no candidate sites"
        for round_no in range(self.max_rounds):
            for i, site in enumerate(candidates):
                if attempt > 0:
                    await asyncio.sleep(self._backoff(attempt))
                attempt += 1
                try:
                    reply = await self._roundtrip(site, frame)
                except (ConnectionError, OSError, asyncio.TimeoutError, WireError) as exc:
                    last_error = f"site {site}: {type(exc).__name__}: {exc}"
                    self._metric("client_attempt_failures_total", op=op, site=site)
                    if i == 0 and site == self.home:
                        self.failovers += 1
                        self._metric("client_failovers_total", op=op)
                    continue
                if type(reply) is dict and reply["t"] == "err":
                    last_error = f"site {site}: {reply.get('code')}: {reply.get('msg')}"
                    self._metric(
                        "client_request_errors_total", op=op, code=reply.get("code")
                    )
                    if reply.get("code") in wire.RETRIABLE:
                        continue
                    raise ServiceUnavailableError(last_error)
                self.served_by[site] = self.served_by.get(site, 0) + 1
                return reply
        self._metric("client_exhausted_total", op=op)
        raise ServiceUnavailableError(
            f"{op} failed on every candidate {candidates} after {attempt} "
            f"attempts; last error: {last_error}"
        )

    def _backoff(self, attempt: int) -> float:
        base = min(self.backoff_base * (2.0 ** (attempt - 1)), self.backoff_cap)
        return base * (0.5 + self._rng.uniform(0.0, 0.5))

    def _outbound(
        self, frame: Dict[str, Any], conn: Connection, itab: wire.InternTable
    ) -> Any:
        """What ``frame`` travels as on ``conn``: a put or get goes
        straight to its wire bytes when the connection takes them,
        anything else stays a frame dict — with the interned id
        substituted for a ``var`` name from this site's table (shallow
        copy — the caller reuses the original frame across failover
        candidates)."""
        codec = conn.one_pass
        if codec is not None:
            kind = frame["t"]
            if kind == "put":
                return codec.pack_put(frame["var"], frame["value"], itab)
            if kind == "get":
                return codec.pack_get(frame["var"], itab)
        var = frame.get("var")
        if type(var) is not str:
            return frame
        interned = itab.encode_var(var)
        if interned is var:
            return frame
        out = dict(frame)
        out["var"] = interned
        return out

    async def _roundtrip(self, site: SiteId, frame: Dict[str, Any]) -> Any:
        """One request, one reply.  The reply comes back as the message
        it carries (``wire.PutOk`` / ``wire.GetOk``) when the connection
        decodes in one pass, as its frame dict otherwise."""
        conn = await self._conn(site)
        itab = self._itabs[site]  # learnt at the handshake _conn ran
        try:
            await conn.send(self._outbound(frame, conn, itab))
            # asyncio.timeout, not wait_for: no extra Task per request
            async with asyncio.timeout(self.timeout):
                reply = await conn.recv_message(itab)
        except (ConnectionError, OSError, asyncio.TimeoutError, WireError):
            await self._drop_conn(site)
            raise
        if reply is None:
            await self._drop_conn(site)
            raise ConnectionResetError(f"site {site} closed the connection")
        return reply

    async def _conn(self, site: SiteId) -> Connection:
        conn = self._conns.get(site)
        if conn is None:
            address = self.addresses[site]
            conn = await asyncio.wait_for(
                self.transport.connect(address), self.timeout
            )
            await self._negotiate(site, conn)
            racer = self._conns.get(site)
            if racer is not None:
                # a concurrent request for this site connected while we
                # negotiated; keep its pooled connection, drop ours
                await conn.close()
                return racer
            self._conns[site] = conn
        return conn

    async def _negotiate(self, site: SiteId, conn: Connection) -> None:
        """Open a fresh connection: one JSON ``hello`` carrying our
        version, answered by the current-version ``hello.ok`` with the
        server's intern table — or the connection is closed and
        ``WireError`` raised (the support window, dialing side)."""
        hello = wire.make_frame("hello", cv=wire.WIRE_VERSION)
        try:
            async with asyncio.timeout(self.timeout):
                reply = await conn.handshake(hello, "hello.ok")
            itab = wire.InternTable(wire.field(reply, "itab", list))
        except (ConnectionError, OSError, asyncio.TimeoutError, WireError):
            await conn.close()
            raise
        self._itabs[site] = itab

    async def _drop_conn(self, site: SiteId) -> None:
        conn = self._conns.pop(site, None)
        if conn is not None:
            await conn.close()


__all__ = ["KVClient"]

"""A simulated site: one protocol instance plus its pending buffers.

The paper spawns a thread per received update that blocks until the
activation predicate ``A(m, e)`` turns true (Section II-B).  The
deterministic equivalent is a pending buffer drained to a fixed point: an
update whose predicate is false waits, and every apply may release others.
The reference formulation is a **fixed-point rescan** — re-test every
pending item, sweep after sweep, until a sweep applies nothing — which
costs O(pending) per apply; it lives on as the oracle of
tests/property/test_drain_equivalence.py.

The drain here is a **dependency wake index** (O(work done)): each
buffered item registers a *watch* on one currently unsatisfied ``(origin,
clock)`` dependency reported by the protocol's ``blocking_deps`` /
``blocking_fetch_deps`` / ``blocking_read_deps`` hooks.  When an apply
advances ``apply_progress(z)``, only the watchers parked on ``z`` are
re-evaluated: each either becomes ready or re-registers on another still
unsatisfied dependency (the classic watched-literal scheme — an item
cannot be ready while *any* of its dependencies is unsatisfied, so
watching a single one never misses the readiness moment).

Apply **order is bit-for-bit identical** to the rescan (the equivalence
property above).  The rescan examines pending items in arrival order,
sweep after sweep; an item that becomes ready *behind* the sweep position
waits for the next sweep, one *ahead* of it is applied in the same sweep.
The indexed drain reproduces this with two ready-heaps and an examination
cursor: a wake with ``seq > cursor`` joins the current sweep's heap, one
with ``seq <= cursor`` joins the next sweep's.

Protocols whose hooks return ``None`` (e.g. the Ahamad baseline, which
stays on the :class:`~repro.core.base.CausalProtocol` defaults) are
"unindexable": their items go to a side list re-examined once per sweep at
their arrival positions — exactly the rescan behaviour, merged in sequence
order with the indexed fast path.

The index is the only drain: measured on the repository's two simulator
workloads it is within 3 % of the better of the rescan and a
depth-switched hybrid on both (docs/performance.md, "One drain strategy").

Fetch requests are buffered the same way while the requester's
piggybacked dependencies have not yet been applied locally.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.base import CausalProtocol
from repro.core.messages import FetchReply, FetchRequest, UpdateMessage, WriteResult
from repro.errors import DeadlockError, SimulationError
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.events import (
    ApplyEvent,
    FetchEvent,
    ReceiptEvent,
    RemoteReturnEvent,
    ReturnEvent,
    SendEvent,
    Tracer,
)
from repro.sim.network import Network
from repro.types import SiteId, VarId, WriteId
from repro.verify.history import History

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.recorder import Recorder
    from repro.verify.sanitizer import CausalSanitizer

#: wake-token kinds
_UPD, _FET, _RD = 0, 1, 2

#: cap on stale-reply re-fetches per remote read (each round trip gives
#: the in-flight updates one more RTT to reach the server, so a healthy
#: run converges in a handful — the cap only turns an undeliverable
#: dependency into a diagnosable error instead of a livelock)
MAX_STALE_FETCH_RETRIES = 100


class _WakeIndex:
    """Per-origin min-heaps of ``(clock, order, kind, seq)`` watch tokens.

    ``order`` is a global registration counter so equal-clock tokens pop in
    a deterministic order (the result is order-insensitive — woken items
    are re-sorted by ``seq`` — but determinism is load-bearing here)."""

    __slots__ = ("_heaps", "_order")

    def __init__(self) -> None:
        self._heaps: Dict[SiteId, List[Tuple[float, int, int, int]]] = {}
        self._order = 0

    def watch(self, z: SiteId, clock: float, kind: int, seq: int) -> None:
        heap = self._heaps.get(z)
        if heap is None:
            heap = self._heaps[z] = []
        self._order += 1
        heapq.heappush(heap, (clock, self._order, kind, seq))

    def has_watchers(self, z: SiteId) -> bool:
        return bool(self._heaps.get(z))

    def pop_ready(self, z: SiteId, progress: int) -> List[Tuple[int, int]]:
        """Pop every token on ``z`` whose clock is now satisfied."""
        heap = self._heaps.get(z)
        out: List[Tuple[int, int]] = []
        while heap and heap[0][0] <= progress:
            _, _, kind, seq = heapq.heappop(heap)
            out.append((kind, seq))
        return out


class SimSite:
    """Wires one :class:`CausalProtocol` instance into the simulation."""

    def __init__(
        self,
        protocol: CausalProtocol,
        sim: Simulator,
        network: Network,
        history: Optional[History] = None,
        metrics: Optional[MetricsCollector] = None,
        tracer: Optional[Tracer] = None,
        batch_window: Optional[float] = None,
        sanitizer: Optional["CausalSanitizer"] = None,
        recorder: Optional["Recorder"] = None,
    ) -> None:
        self.protocol = protocol
        self.site: SiteId = protocol.site
        self.sim = sim
        self.network = network
        self.history = history
        self.metrics = metrics
        self.tracer = tracer
        #: opt-in runtime causal oracle (ClusterConfig.sanitize); shared
        #: across every site of the cluster
        self.sanitizer = sanitizer
        #: opt-in repro.obs lifecycle recorder (None = tracing off, the
        #: zero-cost default); shared across the cluster
        self.recorder = recorder
        self.batcher = None
        if batch_window is not None:
            from repro.sim.batching import UpdateBatcher

            self.batcher = UpdateBatcher(
                self.site,
                batch_window,
                sim.post,
                self._send_batch,
            )
        #: arrival-ordered pending stores: seq -> item.  Sequence numbers
        #: replicate the old append-only lists' positional order.
        self._pu: Dict[int, Tuple[UpdateMessage, float]] = {}
        self._pf: Dict[int, Tuple[FetchRequest, float]] = {}
        self._pr: Dict[int, Tuple[VarId, Callable[[], None]]] = {}
        self._useq = 0
        self._fseq = 0
        self._rseq = 0
        #: believed-ready seqs (min-heaps); consumed by the next drain
        self._ready_u: List[int] = []
        self._ready_f: List[int] = []
        self._ready_r: List[int] = []
        #: unindexable seqs (protocol hook returned None), kept sorted;
        #: re-examined once per sweep like the rescan did
        self._unidx_u: List[int] = []
        self._unidx_f: List[int] = []
        self._unidx_r: List[int] = []
        self._wake = _WakeIndex()
        #: fetch_id -> callback awaiting a FetchReply at this site
        self._fetch_waiters: Dict[int, Callable[[FetchReply], None]] = {}
        #: update messages multicast by this site (termination detection)
        self.updates_sent: int = 0
        #: update messages from other sites applied here
        self.updates_applied: int = 0
        network.register(self.site, self._on_message)

    # ------------------------------------------------------------------
    # buffered-work views (read-only; the dicts are the ground truth)
    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> List[Tuple[UpdateMessage, float]]:
        """Updates waiting for their activation predicate: (msg, recv
        time), in arrival order."""
        return list(self._pu.values())

    @property
    def pending_fetches(self) -> List[Tuple[FetchRequest, float]]:
        """Fetch requests waiting for their piggybacked dependencies."""
        return list(self._pf.values())

    @property
    def _read_waiters(self) -> List[Tuple[VarId, Callable[[], None]]]:
        """Local reads blocked by can_read_local: (var, callback)."""
        return list(self._pr.values())

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    def broadcast_write(self, result: WriteResult, var: VarId) -> None:
        """Hand a write's update messages to the network; record the local
        apply if the variable is locally replicated."""
        if self.sanitizer is not None:
            self.sanitizer.on_write(
                self.site,
                var,
                result.write_id,
                tuple(self.protocol.replicas(var)),
                result.applied_locally,
                now=self.sim.now,
            )
        rec = self.recorder
        if rec is not None and not rec.enabled:
            rec = None
        if rec is not None:
            rec.on_issue(
                self.sim.now,
                self.site,
                var,
                result.write_id,
                self.protocol.replicas(var),
            )
        messages = result.messages
        if self.tracer or rec is not None:
            for msg in messages:
                if self.tracer:
                    self.tracer.emit(
                        SendEvent(self.sim.now, self.site, msg.dest, var, msg.write_id)
                    )
                if rec is not None:
                    rec.on_send(self.sim.now, self.site, msg.dest, msg.write_id)
        self.updates_sent += len(messages)
        if self.batcher is not None:
            for msg in messages:
                self.batcher.enqueue(msg)
        else:
            # the copies of one write leave as one multicast
            self.network.send_many(
                MetricsCollector.UPDATE,
                messages,
                self.site,
                [msg.dest for msg in messages],
            )
        if result.applied_locally:
            self._record_apply(var, result.write_id, self.sim.now)

    def _send_batch(self, batch) -> None:
        self.network.send("update-batch", batch, self.site, batch.dest)

    def send_fetch(
        self, req: FetchRequest, on_reply: Callable[[FetchReply], None]
    ) -> None:
        """Send a remote-read request and register the reply callback."""
        self._fetch_waiters[req.fetch_id] = on_reply
        self.network.send(MetricsCollector.FETCH, req, self.site, req.server)

    def forget_fetch(self, fetch_id: int) -> None:
        """Abandon an outstanding fetch (availability timeout path)."""
        self._fetch_waiters.pop(fetch_id, None)

    def remote_read(
        self,
        var: VarId,
        server: SiteId,
        on_done: Callable[[Any, Optional[WriteId]], None],
    ) -> Callable[[], None]:
        """Fetch ``var`` from ``server`` and call ``on_done(value,
        write_id)`` with the completed read.

        Every reply passes the protocol's freshness gate first
        (:meth:`~repro.core.base.CausalProtocol.reply_is_fresh`): a stale
        one is discarded without merging its metadata and the fetch is
        re-issued, at most :data:`MAX_STALE_FETCH_RETRIES` times.
        Returns a callable that abandons the read (the fetch then in
        flight is forgotten, so a late reply completes nothing)."""
        proto = self.protocol
        current = 0  # fetch id of the request in flight
        retries = 0

        def send() -> None:
            nonlocal current
            req = proto.make_fetch_request(var, server)
            current = req.fetch_id
            self.send_fetch(req, on_reply)

        def on_reply(reply: FetchReply) -> None:
            nonlocal retries
            if not proto.reply_is_fresh(reply):
                retries += 1
                if retries > MAX_STALE_FETCH_RETRIES:
                    raise DeadlockError(
                        f"remote read of {var!r} at site {self.site} stale "
                        f"after {retries - 1} retries: server {server} "
                        f"never applied a causally required update"
                    )
                send()
                return
            on_done(*proto.complete_remote_read(reply))

        if self.tracer:
            self.tracer.emit(FetchEvent(self.sim.now, self.site, server, var))
        send()
        return lambda: self.forget_fetch(current)

    def observe_read(
        self, var: VarId, value: Any, write_id: Optional[WriteId]
    ) -> None:
        """Report a completed read to the sanitizer, the lifecycle
        recorder, the history and the tracer."""
        now = self.sim.now
        if self.sanitizer is not None:
            self.sanitizer.on_read(self.site, var, write_id, now=now)
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_read(now, self.site, var, write_id)
        if self.history is not None:
            self.history.record_read(self.site, var, value, write_id, now)
        if self.tracer:
            self.tracer.emit(ReturnEvent(now, self.site, var, value, write_id))

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_message(self, kind: str, msg: Any) -> None:
        if kind == MetricsCollector.UPDATE:
            self._on_update(msg)
        elif kind == "update-batch":
            self._on_update_batch(msg)
        elif kind == MetricsCollector.FETCH:
            self._on_fetch_request(msg)
        elif kind == MetricsCollector.REPLY:
            self._on_fetch_reply(msg)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown message kind {kind!r}")

    def _on_update_batch(self, batch) -> None:
        if self.tracer:
            self.tracer.emit(
                ReceiptEvent(
                    self.sim.now, self.site, batch.sender, "update-batch", "*"
                )
            )
        now = self.sim.now
        rec = self.recorder
        for msg in batch.updates:
            if rec is not None and rec.enabled:
                rec.on_deliver(now, self.site, msg.write_id)
            self._enqueue_update(msg, now)
        self.drain()

    def _on_update(self, msg: UpdateMessage) -> None:
        if self.tracer:
            self.tracer.emit(
                ReceiptEvent(self.sim.now, self.site, msg.sender, "update", msg.var)
            )
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_deliver(self.sim.now, self.site, msg.write_id)
        self._enqueue_update(msg, self.sim.now)
        self.drain()

    def _enqueue_update(self, msg: UpdateMessage, recv_time: float) -> None:
        seq = self._useq
        self._useq += 1
        self._pu[seq] = (msg, recv_time)
        deps = self.protocol.blocking_deps(msg)
        rec = self.recorder
        if rec is not None and rec.enabled and deps != ():
            # None (unindexable) or a non-empty blocking set: the
            # activation predicate may be false right now
            self._record_buffered(rec, msg, deps)
        if deps is None:
            self._unidx_u.append(seq)  # seqs only grow: stays sorted
        elif deps:
            z, c = deps[0]
            self._wake.watch(z, c, _UPD, seq)
        else:
            heapq.heappush(self._ready_u, seq)

    def _record_buffered(self, rec, msg: UpdateMessage, deps) -> None:
        """Emit a ``buffered`` lifecycle event if ``msg``'s activation
        predicate is false on arrival, naming the blocking dependencies
        when the protocol can report them (``deps`` is its
        ``blocking_deps`` result; None = unindexable, so the predicate is
        tested directly — predicate hooks are pure, the extra call cannot
        perturb the run)."""
        if deps is None:
            if self.protocol.can_apply(msg):
                return
            deps = ()
        rec.on_buffered(self.sim.now, self.site, msg.write_id, deps)

    def _on_fetch_request(self, req: FetchRequest) -> None:
        if self.tracer:
            self.tracer.emit(
                ReceiptEvent(self.sim.now, self.site, req.requester, "fetch", req.var)
            )
        seq = self._fseq
        self._fseq += 1
        self._pf[seq] = (req, self.sim.now)
        deps = self.protocol.blocking_fetch_deps(req)
        if deps is None:
            self._unidx_f.append(seq)
        elif deps:
            z, c = deps[0]
            self._wake.watch(z, c, _FET, seq)
        else:
            del self._pf[seq]
            self._serve_fetch(req)

    def _on_fetch_reply(self, reply: FetchReply) -> None:
        if self.tracer:
            self.tracer.emit(
                ReceiptEvent(
                    self.sim.now, self.site, reply.server, "fetch-reply", reply.var
                )
            )
        waiter = self._fetch_waiters.pop(reply.fetch_id, None)
        if waiter is not None:
            waiter(reply)
        # an unmatched reply is legal: the availability extension abandons
        # fetches that timed out

    # ------------------------------------------------------------------
    # activation machinery
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Apply every pending update whose activation predicate holds
        (to the rescan's fixed point, in the rescan's order); then serve
        unblocked fetches and local reads.  Returns the number of updates
        applied."""
        proto = self.protocol
        pu = self._pu
        cur = self._ready_u  # sweep-1 ready heap (the persistent one)
        nxt: List[int] = []
        # A local write advances this site's own apply progress outside the
        # drain loop; catch the index up before the first sweep (cursor -1:
        # every wake joins the first sweep, which examines everything —
        # exactly like the rescan's first pass).
        if self._wake.has_watchers(self.site):
            self._process_wakes(self.site, cur, nxt, -1)

        applied_total = 0
        while cur or self._unidx_u:
            # One sweep: believed-ready items (cur) and unindexable items,
            # merged in arrival order.  cursor = last examined position.
            applied_sweep = 0
            cursor = -1
            unidx = self._unidx_u
            self._unidx_u = []
            ui = 0
            n_unidx = len(unidx)
            while True:
                useq = unidx[ui] if ui < n_unidx else None
                cseq = cur[0] if cur else None
                if cseq is None and useq is None:
                    break
                if cseq is None or (useq is not None and useq < cseq):
                    # unindexable item: re-test its predicate at its
                    # arrival position, as the rescan did
                    ui += 1
                    item = pu.get(useq)
                    if item is None:
                        continue
                    msg, recv_time = item
                    if proto.can_apply(msg):
                        del pu[useq]
                        cursor = useq
                    else:
                        self._unidx_u.append(useq)
                        continue
                else:
                    seq = heapq.heappop(cur)
                    item = pu.pop(seq, None)
                    if item is None:
                        continue  # stale token (applied via another path)
                    msg, recv_time = item
                    cursor = seq
                if self.sanitizer is not None:
                    self.sanitizer.before_apply(proto, msg, now=self.sim.now)
                    proto.apply_update(msg)
                    self.sanitizer.after_apply(proto, msg, now=self.sim.now)
                else:
                    proto.apply_update(msg)
                self._record_apply(msg.var, msg.write_id, recv_time)
                self.updates_applied += 1
                applied_sweep += 1
                # this apply advanced progress for msg.sender only: wake
                # exactly the items parked on it
                if self._wake.has_watchers(msg.sender):
                    self._process_wakes(msg.sender, cur, nxt, cursor)
            applied_total += applied_sweep
            if nxt:
                cur, nxt = nxt, []
                continue
            if applied_sweep == 0 or not self._unidx_u:
                break
            cur = []  # re-examine unindexable leftovers in a fresh sweep
        if applied_total:
            self._flush_ready_fetches()
            self._flush_ready_reads()
        return applied_total

    def _process_wakes(
        self, z: SiteId, cur: List[int], nxt: List[int], cursor: int
    ) -> None:
        """Re-evaluate every item watching ``z`` now that its progress
        advanced.  Newly ready updates join the current sweep when their
        position is still ahead of the cursor, the next sweep otherwise
        (replicating the rescan's sweep discipline)."""
        proto = self.protocol
        rec = self.recorder
        ready_w: Optional[List] = None
        reparked_w: Optional[List] = None
        if rec is not None and rec.enabled:
            ready_w, reparked_w = [], []
        progress = proto.apply_progress(z)
        for kind, seq in self._wake.pop_ready(z, progress):
            if kind == _UPD:
                item = self._pu.get(seq)
                if item is None:
                    continue
                deps = proto.blocking_deps(item[0])
                if deps is None:
                    insort(self._unidx_u, seq)
                    if reparked_w is not None:
                        reparked_w.append(item[0].write_id)
                elif deps:
                    z2, c2 = deps[0]
                    self._wake.watch(z2, c2, _UPD, seq)
                    if reparked_w is not None:
                        reparked_w.append(item[0].write_id)
                else:
                    heapq.heappush(cur if seq > cursor else nxt, seq)
                    if ready_w is not None:
                        ready_w.append(item[0].write_id)
            elif kind == _FET:
                item = self._pf.get(seq)
                if item is None:
                    continue
                deps = proto.blocking_fetch_deps(item[0])
                if deps is None:
                    insort(self._unidx_f, seq)
                elif deps:
                    z2, c2 = deps[0]
                    self._wake.watch(z2, c2, _FET, seq)
                else:
                    heapq.heappush(self._ready_f, seq)
            else:
                item = self._pr.get(seq)
                if item is None:
                    continue
                deps = proto.blocking_read_deps(item[0])
                if deps is None:
                    insort(self._unidx_r, seq)
                elif deps:
                    z2, c2 = deps[0]
                    self._wake.watch(z2, c2, _RD, seq)
                else:
                    heapq.heappush(self._ready_r, seq)
        if rec is not None and (ready_w or reparked_w):
            rec.on_wake(self.sim.now, self.site, z, progress, ready_w, reparked_w)

    def _flush_ready_fetches(self) -> None:
        """Serve woken and unindexable pending fetches, in arrival order
        (the rescan's single post-drain scan)."""
        if not self._ready_f and not self._unidx_f:
            return
        proto = self.protocol
        rf = self._ready_f
        unidx = self._unidx_f
        self._unidx_f = []
        ui = 0
        n_unidx = len(unidx)
        while True:
            useq = unidx[ui] if ui < n_unidx else None
            cseq = rf[0] if rf else None
            if cseq is None and useq is None:
                break
            if cseq is None or (useq is not None and useq < cseq):
                ui += 1
                seq = useq
            else:
                seq = heapq.heappop(rf)
            item = self._pf.get(seq)
            if item is None:
                continue
            req = item[0]
            deps = proto.blocking_fetch_deps(req)
            if deps is None:
                insort(self._unidx_f, seq)
            elif deps:
                z, c = deps[0]
                self._wake.watch(z, c, _FET, seq)
            else:
                del self._pf[seq]
                self._serve_fetch(req)

    def _flush_ready_reads(self) -> None:
        """Fire woken and unindexable blocked local reads, in arrival
        order, re-verifying ``can_read_local`` at fire time (a fired
        callback runs ``read_local``, whose log merge can in principle
        change another waiter's blocking set — in practice each site hosts
        one application process, so at most one waiter is ever parked)."""
        if not self._ready_r and not self._unidx_r:
            return
        proto = self.protocol
        rr = self._ready_r
        unidx = self._unidx_r
        self._unidx_r = []
        ui = 0
        n_unidx = len(unidx)
        while True:
            useq = unidx[ui] if ui < n_unidx else None
            cseq = rr[0] if rr else None
            if cseq is None and useq is None:
                break
            if cseq is None or (useq is not None and useq < cseq):
                ui += 1
                seq = useq
            else:
                seq = heapq.heappop(rr)
            item = self._pr.get(seq)
            if item is None:
                continue
            var, callback = item
            if proto.can_read_local(var):
                del self._pr[seq]
                callback()
            else:
                self._register_read(seq)

    def _register_read(self, seq: int) -> None:
        item = self._pr.get(seq)
        if item is None:
            return
        deps = self.protocol.blocking_read_deps(item[0])
        if deps is None:
            if seq not in self._unidx_r:
                insort(self._unidx_r, seq)
        elif deps:
            z, c = deps[0]
            self._wake.watch(z, c, _RD, seq)
        else:
            heapq.heappush(self._ready_r, seq)

    # ------------------------------------------------------------------
    def wait_local_read(self, var: VarId, callback: Callable[[], None]) -> None:
        """Register a local read blocked by ``can_read_local``; the
        callback fires once the local state has caught up (possibly
        immediately)."""
        if self.protocol.can_read_local(var):
            callback()
            return
        seq = self._rseq
        self._rseq += 1
        self._pr[seq] = (var, callback)
        self._register_read(seq)

    def _serve_fetch(self, req: FetchRequest) -> None:
        reply = self.protocol.serve_fetch(req)
        if self.tracer:
            self.tracer.emit(
                RemoteReturnEvent(self.sim.now, self.site, req.requester, req.var)
            )
        self.network.send(MetricsCollector.REPLY, reply, self.site, req.requester)

    def _record_apply(self, var: VarId, write_id, recv_time: float) -> None:
        now = self.sim.now
        if self.history is not None:
            self.history.record_apply(self.site, write_id, var, now, recv_time)
        if self.metrics is not None:
            self.metrics.on_apply(now - recv_time)
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_apply(now, self.site, var, write_id, recv_time)
        if self.tracer:
            self.tracer.emit(
                ApplyEvent(now, self.site, var, write_id, write_id.site)
            )

    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """True when nothing is buffered at this site."""
        return (
            not self._pu
            and not self._pf
            and not self._fetch_waiters
            and not self._pr
            and (self.batcher is None or self.batcher.pending == 0)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimSite {self.site} pending={len(self._pu)}u/"
            f"{len(self._pf)}f>"
        )

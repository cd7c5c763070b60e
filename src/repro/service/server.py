"""Per-site asyncio server hosting one causal-protocol instance.

One :class:`SiteServer` owns one :class:`~repro.core.base.CausalProtocol`
state machine and exposes it over a :class:`~repro.service.transport.
Transport`.  The protocol is a pure state machine with no locking, so the
server enforces a **single-writer discipline**: every protocol mutation
happens synchronously on the event loop between awaits — handlers never
hold a partially applied protocol state across a suspension point.

Request paths (the home-site session model):

* **put** — always served locally (any site may originate a write).  The
  resulting update messages are enqueued on per-destination
  :class:`PeerLink` queues — FIFO per link, surviving reconnects — which
  preserves the per-sender delivery order the activation predicates rely
  on.  The client's ``put.ok`` is sent first and the links are flushed
  second, in the same loop step.
* **get, locally replicated** — gated on
  :meth:`~repro.core.base.CausalProtocol.can_read_local` (a partial-
  replication protocol holds a read while causally known updates are in
  flight to this site); the wait is
  bounded by ``read_timeout`` and expires to a retriable ``read-timeout``
  error.
* **get, remote** — the server performs the paper's RemoteFetch on the
  client's behalf over the peer link to the predesignated replica.  The
  serving site answers a fetch at the end of the inbound batch that
  carried it, in the link handler's own step, when ``can_serve_fetch``
  admits it (one whose piggybacked dependencies are not applied yet
  waits in its own task).
  The reply is judged where it lands: the link reader that reads the
  ``fetch.ok`` runs the reply-freshness gate
  (:meth:`~repro.core.base.CausalProtocol.reply_is_fresh`), the WAL
  record, the merge and the read hooks in that same step — in FIFO
  order with the acks behind it on the connection, whose ack-driven GC
  would otherwise clear the serving site from the very log records the
  gate checks.  A stale reply is answered with a re-fetch that names
  the records the reply missed
  (:meth:`~repro.core.base.CausalProtocol.stale_deps`), which the
  serving site parks until it has applied them.  The ``get`` handler
  only awaits the read's one future, bounded by ``fetch_timeout`` per
  attempt and ``read_timeout`` per read; exhaustion surfaces as a
  retriable ``unavailable`` error and the client fails over to another
  replica of the key.

Peer links are **acknowledged**: every link connection opens with a
``link.hello`` handshake naming the sender's incarnation ``epoch``, and
the receiver answers ``link.ok`` with its cumulative per-link ack.  A
repl frame leaves the sender's queue only when the receiver has
acknowledged it (``repl.ackp``, sent after the update is applied or
parked) — a transport-level send success (e.g. TCP accepting bytes into
a kernel buffer the peer never reads) is *not* enough, so a frame lost
mid-connection is resent after the next handshake.  The receiver
processes only the contiguous next sequence number (``ls == seen + 1``),
drops duplicates, and refuses gaps without acking, which turns the
link's at-least-once delivery into exactly-once application; a new
epoch (a restarted sender) resets the receiver's dedup state so a fresh
incarnation's sequence numbers are not mistaken for duplicates.

The same handshake enforces the **support window** (see
:mod:`repro.service.wire`): a connection whose first frame is not a
hello carrying ``cv == WIRE_VERSION`` is answered with one
``unsupported-version`` error and closed — on the dialing side a link
backs off and retries, a client surfaces the error.  What a connection
may send afterwards follows from which hello opened it (``sys.digest``
/ ``sys.range``: link connections only).  After the handshake both ends
send in the binary codec and the link hands its whole unsent suffix to
the transport as one batch (written through in the loop step that
enqueued it when the connection is idle and writable, by the link's
writer task otherwise; see :class:`PeerLink`); the inbound loop decodes
and applies a whole batch of contiguous frames before signalling the
progress condition once, and repl acks are **cumulative per batch** (one
ack naming the highest contiguous sequence, instead of one ack frame per
apply).  An ack is sent only after every frame it covers was applied or
parked, so an acked frame is inside this site's protocol state.

The receiver's ``link.ok`` / ``hello.ok`` carries its intern table
(``itab``: variable names whose positions become the small int ids
senders may substitute for ``var`` strings) and ``link.ok`` its applied
watermark ``ap``.  The sender *chains* repl frames per connection: the
first frame travels full, later frames may travel as ``repl.delta``
carrying only the metadata diff against the previous frame of the same
connection.  Because the receiver only ever decodes the contiguous
``ls == seen + 1`` frame, its decode baseline (the last frame it
processed) always equals the sender's chain baseline; a reconnect drops
the chain on both sides and restarts with a full frame, so loss never
needs a repair protocol.  The same pair of chain ends carries what the
link itself fixes: ``ls``, the issue stamp and the ack travel as
advances over the previous frame of their kind (absolute on the first),
and no frame repeats the two sites the ``link.hello`` named.  Acks
carry the applied watermark — the
highest contiguous sequence whose update this site has *applied* (not
merely parked), wired as the usually-zero gap below the ack — which the
sender feeds to
:meth:`~repro.core.base.CausalProtocol.note_remote_apply`: an applied
watermark is out-of-band Condition-1 knowledge, so the sender prunes
the acked destination from retired dependency-log entries and its own
metadata stays bounded by what the slowest peer actually applied,
instead of growing with it (ack-driven GC).

Updates whose activation predicate is false are parked and re-evaluated
after every apply (a rescan drain — service deployments are a handful of
sites, so the simulator's wake index is not worth its bookkeeping here).

The observability hooks mirror the simulator byte-for-byte: the causal
sanitizer (when attached) sees the same ``on_write`` / ``before_apply`` /
``after_apply`` / ``on_read`` stream, and the lifecycle recorder receives
``issue``/``send``/``deliver``/``buffered``/``apply``/``read`` spans, so
``repro-sim trace`` renders service runs unchanged.

On top of that sits the **live observability plane**:

* every server keeps an always-on :class:`~repro.obs.flight.
  FlightRecorder` ring next to any user recorder (fanned out through a
  :class:`~repro.obs.flight.TeeRecorder`); a ``SanitizerViolation``, an
  unhandled handler exception, or a chaos ``kill`` dumps the ring as a
  TRACE_VERSION post-mortem via :meth:`SiteServer.flight_dump`;
* any handshaken connection may ask ``sys.stats`` and gets a
  synchronous single-writer snapshot — link lag watermarks, parked
  depths, dependency-log size, the metrics registry;
* a link stamps outgoing repl frames with their origin issue time
  (``repl.t`` / ``repl.delta.t``), and the receiver turns issue→apply
  into the per-origin ``visibility_latency_ms`` histogram.  The stamp
  is exact on co-hosted clusters (one clock origin via
  :meth:`set_clock_origin`) and subject to host clock skew across
  machines.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.base import CausalProtocol
from repro.core.log import DepLog
from repro.core.messages import (
    FetchReply,
    FetchRequest,
    UpdateMessage,
    WriteResult,
)
from repro.errors import (
    SanitizerViolation,
    ServiceError,
    ServiceUnavailableError,
    WireError,
)
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY, FlightRecorder, TeeRecorder
from repro.service import gossip as gossip_proto
from repro.service import wire
from repro.service.durability import SiteWal, WalCorruptionError
from repro.service.transport import Connection, Listener, Transport
from repro.types import SiteId, VarId, WriteId

#: bound on consecutive stale-reply re-fetches of one remote read (same
#: role as ``repro.sim.site.MAX_STALE_FETCH_RETRIES``).  A re-fetch
#: parks at the serving replica until the records the stale reply
#: missed are applied, so one usually suffices; more are needed only
#: when this site's own causal past grew while it waited.
MAX_STALE_FETCH_RETRIES = 100

#: bound on waiting for the peer's ``link.ok`` handshake reply, seconds
LINK_HANDSHAKE_TIMEOUT = 2.0

#: inbound update frames, plain and issue-time-stamped (membership test
#: on the dispatch hot path)
_REPL_KINDS = frozenset(wire.REPL_FRAME_KINDS)


class PeerLink:
    """Outbound frame queue to one peer site, with reconnect + resend.

    Every connection opens with a ``link.hello``/``link.ok`` handshake
    (see the module docstring).  ``repl`` frames are sent in FIFO order
    by one flusher at a time but **retired only by a receiver-side ack**
    — the handshake's cumulative ack or an in-band ``repl.ackp`` — never
    by transport send success alone, so a frame the transport accepted
    but the peer never processed is resent on the next connection.
    Fetch requests ride the same connection fire-and-forget (the
    requester's timeout covers their loss); a paired reader task hands
    ``fetch.ok`` / ``fetch.err`` responses to the owning server's
    :meth:`SiteServer._resolve_fetch`, which completes the read in the
    reader's step, and applies incoming acks in arrival order.

    The queue holds *decoded* :class:`UpdateMessage` objects and encodes
    at send time: the per-connection
    :class:`~repro.service.wire.DeltaEncoder` (created during the
    handshake, dropped on disconnect) chains each frame against the
    previous one, so the same queued message encodes as a full frame on
    a fresh connection and as a ``repl.delta`` mid-stream.  Acks carry
    the receiver's applied watermark ``ap``; :meth:`_note_applied`
    translates it to the write clock at that sequence and feeds the
    protocol's ack-driven dependency-log GC.

    The link is **write-through**: while it holds a handshaken
    connection that is idle (``_busy`` false) and :meth:`~repro.service.
    transport.Connection.writable`, :meth:`flush` encodes the unsent
    suffix and hands it to the transport in the caller's own loop step —
    the update is on the wire before the handler that accepted the write
    returns.  The writer task is the slow path only: connect, handshake,
    resend after a reconnect, and backpressure (a connection that is not
    writable, or never is — the base-class default).  Both paths build
    batches with the same :meth:`_collect` / :meth:`_mark_sent` pair, so
    frames reach a connection in ``ls`` order exactly once whichever
    path carried them.
    """

    def __init__(
        self,
        owner: "SiteServer",
        dest: SiteId,
        address: str,
        *,
        backoff_base: float = 0.02,
        backoff_cap: float = 0.5,
    ) -> None:
        self.owner = owner
        self.dest = dest
        self.address = address
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: unacknowledged updates as ``(ls, msg)``, FIFO by ``ls``;
        #: encoding happens at send time so the delta chain can restart
        #: per connection while the queue survives reconnects
        self._repl: Deque[Tuple[int, UpdateMessage]] = deque()
        #: pending fetch requests (retired on send; no ack bookkeeping),
        #: encoded at send time like the updates
        self._fetch: Deque[FetchRequest] = deque()
        #: pending gossip control frames (``sys.digest`` / ``sys.range``).
        #: Retired on send but counted in :attr:`backlog` until the peer
        #: acks them with ``sys.ctrl.ok`` — control frames trigger repair
        #: shipping at the peer, so quiesce must not settle while one is
        #: in flight.
        self._ctrl: Deque[Dict[str, Any]] = deque()
        self._ctrl_unacked = 0
        #: highest own write clock among acked repl entries — the "peer
        #: durably holds this write" watermark gossip pushes check first
        self.acked_seq = 0
        #: own write clocks currently sitting in ``_repl`` (unacked), so
        #: a gossip repair never double-enqueues an in-flight update
        self._queued_seqs: Set[int] = set()
        self._wakeup = asyncio.Event()
        self._link_seq = 0
        #: per-connection delta/intern encoder, replaced at every
        #: handshake (this first one never encodes: nothing is collected
        #: while ``_conn`` is None)
        self._delta_out = wire.DeltaEncoder()
        #: link sequence -> write clock, for translating the receiver's
        #: applied watermark ``ap`` into a ``note_remote_apply`` call;
        #: entries at or below ``_gc_ls`` have been consumed
        self._ls_clock: Dict[int, int] = {}
        self._gc_ls = 0
        #: link sequence -> origin issue time (ms), recorded at enqueue
        #: and stamped onto the frame; survives reconnects with the
        #: queue, retired with the acks
        self._issued_at: Dict[int, float] = {}
        #: the handshaken connection batches currently go to; ``None``
        #: while connecting, handshaking or tearing one down
        self._conn: Optional[Connection] = None
        #: highest repl link sequence handed to ``_conn``
        self._sent = 0
        #: a writer-task ``send_many`` on ``_conn`` is suspended in the
        #: transport: an inline write now would land behind a batch that
        #: is only partly written, or re-encode frames it already holds
        self._busy = False
        #: flushes by the path that carried them (``inline`` = in the
        #: enqueuer's loop step, ``task`` = the writer task)
        self.flushes = {"inline": 0, "task": 0}
        metrics = owner.metrics
        self._flush_counters = (
            None
            if metrics is None
            else {
                path: metrics.counter(
                    "link_flushes_total", site=owner.site, peer=dest, path=path
                )
                for path in self.flushes
            }
        )
        self._closed = False
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    def enqueue_update(self, msg: UpdateMessage, flush: bool = True) -> None:
        """Queue one update.  ``flush=False`` leaves putting it on the
        wire to the caller's own :meth:`flush` — a put replies to its
        client first, a gossip repair flushes its whole burst once."""
        self._link_seq += 1
        self._repl.append((self._link_seq, msg))
        self._ls_clock[self._link_seq] = msg.write_id.seq
        self._issued_at[self._link_seq] = self.owner.now_ms()
        self._queued_seqs.add(msg.write_id.seq)
        if flush:
            self.flush()

    def enqueue_fetch(self, req: FetchRequest) -> None:
        self._fetch.append(req)
        self.flush()

    def flush(self) -> None:
        """Put everything queued on the wire now if the link can, else
        wake the writer task to do it.  ``writable()`` is asked *before*
        :meth:`_collect`: collecting advances the connection's delta
        chain, so a collected batch must reach that connection next."""
        conn = self._conn
        if conn is None or self._busy or not conn.writable():
            self._wakeup.set()
            return
        batch, last_ls, n_fetch, n_ctrl = self._collect()
        if not batch:
            return
        try:
            conn.write_many(batch)
        except (ConnectionError, OSError):
            # the connection is dead and its delta chain with it: stop
            # writing to it and let the writer task return, so _run
            # reconnects and resends from the next handshake's ack
            self._conn = None
            self._wakeup.set()
            return
        self._mark_sent(last_ls, n_fetch, n_ctrl, "inline")

    def enqueue_ctrl(self, frame: Dict[str, Any]) -> None:
        """Queue a gossip control frame, superseding any queued frame of
        the same kind (and origin): watermark digests and range requests
        are cumulative, so only the newest of each matters."""
        key = (frame["t"], frame.get("origin"))
        for i, queued in enumerate(self._ctrl):
            if (queued["t"], queued.get("origin")) == key:
                self._ctrl[i] = frame
                break
        else:
            self._ctrl.append(frame)
        self.flush()

    @property
    def backlog(self) -> int:
        """Frames not yet *processed* by the peer: repl frames count
        until acknowledged, not merely until handed to the transport —
        this is what makes :meth:`ServiceCluster.quiesce` sound.  Gossip
        control frames count both while queued and (via ``sys.ctrl.ok``
        accounting) while their repair effects may still be materializing
        at the peer."""
        return (
            len(self._repl)
            + len(self._fetch)
            + len(self._ctrl)
            + self._ctrl_unacked
        )

    def stats(self) -> Dict[str, Any]:
        """Point-in-time lag watermarks, derived from the structures the
        ack protocol already keeps — no extra hot-path bookkeeping.
        ``acked == enqueued - unacked`` holds because ``_repl`` is
        exactly the ``(acked, _link_seq]`` suffix: entries leave only
        through :meth:`_retire`, which pops a contiguous prefix.
        ``applied`` is the receiver's applied watermark (every ack
        carries it)."""
        unacked = len(self._repl)
        acked = self._link_seq - unacked
        return {
            "enqueued": self._link_seq,
            "acked": acked,
            "unacked": unacked,
            "applied": self._gc_ls,
            "fetch_queue": len(self._fetch),
            "ctrl_queue": len(self._ctrl) + self._ctrl_unacked,
            "backlog": self.backlog,
            "flushes_inline": self.flushes["inline"],
            "flushes_task": self.flushes["task"],
        }

    async def close(self) -> None:
        self._closed = True
        self._wakeup.set()
        # take-then-clear: concurrent close() calls must not both await
        # the same task and race on resetting it
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        rng = np.random.default_rng(
            (self.owner.seed * 1_000_003 + self.dest) & 0x7FFFFFFF
        )
        backoff = self.backoff_base
        while not self._closed:
            try:
                conn = await self.owner.transport.connect(self.address)
            except (ConnectionError, OSError):
                self.owner.metric("link_connect_failures_total", peer=self.dest)
                await asyncio.sleep(backoff * (1.0 + rng.uniform(0.0, 0.5)))
                backoff = min(backoff * 2.0, self.backoff_cap)
                continue
            try:
                acked = await self._handshake(conn)
            except (ConnectionError, OSError, WireError, asyncio.TimeoutError):
                self.owner.metric("link_connect_failures_total", peer=self.dest)
                await conn.close()
                await asyncio.sleep(backoff * (1.0 + rng.uniform(0.0, 0.5)))
                backoff = min(backoff * 2.0, self.backoff_cap)
                continue
            backoff = self.backoff_base
            # from here flush() may write to the connection inline:
            # everything the receiver acked is sent, the rest is not
            self._sent = acked
            self._conn = conn
            # run writer and reader side by side and reconnect when
            # EITHER dies: a send failure, or the reader seeing EOF (a
            # peer that restarted or silently closed) — unacked repl
            # frames are resent after the next handshake
            writer = asyncio.ensure_future(self._drain_queue(conn))
            reader = asyncio.ensure_future(self._read_replies(conn))
            try:
                await asyncio.wait(
                    {writer, reader}, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                # before the first await of the teardown: no inline
                # write may reach a connection that is being closed
                self._conn = None
                for task in (writer, reader):
                    task.cancel()
                    try:
                        await task
                    except (
                        asyncio.CancelledError,
                        ConnectionError,
                        OSError,
                        WireError,
                    ):
                        pass
                await conn.close()
            if not self._closed:
                self.owner.metric("link_drops_total", peer=self.dest)

    async def _handshake(self, conn: Connection) -> int:
        """Open the link: identify this sender incarnation, learn the
        receiver's cumulative ack (retiring frames it already has), its
        intern table and its applied watermark, and switch to the binary
        codec with a fresh :class:`~repro.service.wire.DeltaEncoder`
        (first frame full and absolute).  The hello itself travels JSON.  A reply
        that is not the current-version ``link.ok``, or whose fields are
        missing or mistyped, raises ``WireError``: ``_run`` counts it,
        backs off and dials again."""
        hello = wire.make_frame(
            "link.hello",
            src=self.owner.site,
            epoch=self.owner.epoch,
            cv=wire.WIRE_VERSION,
        )
        reply = await asyncio.wait_for(
            conn.handshake(hello, "link.ok"), LINK_HANDSHAKE_TIMEOUT
        )
        acked = wire.field(reply, "ack", int)
        applied = wire.field(reply, "ap", int)
        itab = wire.InternTable(wire.field(reply, "itab", list))
        # control frames unacked on the previous connection were either
        # processed (their repair effects live in the PEER's link
        # backlogs now) or lost (the next gossip round regenerates
        # them) — either way the in-flight count restarts with the
        # connection, unlike repl frames which must survive it
        self._ctrl_unacked = 0
        self._delta_out = wire.DeltaEncoder(itab, self.owner.site, self.dest)
        self._note_applied(applied)
        self._retire(acked)
        return acked

    def _note_applied(self, ap: int) -> None:
        """Feed the receiver's applied watermark to the protocol's
        dependency-log GC.  ``ap`` covers a *contiguous* applied prefix
        and link sequence order is this site's write clock order, so the
        clock recorded at ``ap`` bounds every write the peer applied;
        the watermark is monotone, so stale repeats are no-ops."""
        if ap <= self._gc_ls:
            return
        clock = self._ls_clock.pop(ap, 0)
        for ls in range(self._gc_ls + 1, ap):
            self._ls_clock.pop(ls, None)
        lo = self._gc_ls
        self._gc_ls = ap
        proto = self.owner.protocol
        # Transitive knowledge first: every newly-applied update's
        # piggybacked metadata proves the peer applied the records
        # naming it (activation predicate).  The updates are still in
        # ``_repl`` because acks retire entries only after this runs;
        # after a reconnect some may already be gone — best-effort GC.
        for ls, msg in self._repl:
            if ls > ap:
                break
            if ls > lo:
                proto.note_remote_apply_log(self.dest, msg.meta)
        proto.note_remote_apply(self.dest, clock)

    def _retire(self, ack: int) -> None:
        """Drop repl entries up to the receiver's cumulative ack.  An
        acked update is durably held by the peer (it WAL-appends before
        acking), so the ack also advances the gossip watermark
        ``acked_seq`` and releases the sender's own-log copy for this
        destination — every entry this link carries is an own write
        (origins ship only their own updates under partial replication,
        and gossip repair re-ships own writes only)."""
        while self._repl and self._repl[0][0] <= ack:
            ls, msg = self._repl.popleft()
            self._issued_at.pop(ls, None)
            self._queued_seqs.discard(msg.write_id.seq)
            if msg.write_id.seq > self.acked_seq:
                self.acked_seq = msg.write_id.seq
            self.owner._own_retired(msg)

    def _collect(self) -> Tuple[List[Any], int, int, int]:
        """Encode everything not yet handed to the current connection:
        the unsent repl suffix, then the pending fetches and control
        frames.  Returns ``(batch, last_ls, n_fetch, n_ctrl)``; the
        caller writes the batch to ``_conn`` and passes the rest to
        :meth:`_mark_sent`.  Retirement is unchanged — repl entries
        leave ``_repl`` only via receiver acks.  Frames are encoded
        here, in ``ls`` order, exactly once per connection: that
        single-pass discipline is what lets the delta encoder chain
        each frame against the previous one.  Updates and fetches go
        straight to their wire bytes when the connection takes them
        (``one_pass``), through frame dicts when it does not."""
        sent = self._sent
        codec = self._conn.one_pass if self._conn is not None else None
        # ``ls`` values are consecutive (assigned at enqueue) and
        # retired from the left only, so the unsent entries are exactly
        # the last ``_link_seq - sent`` entries — no scan
        n_unsent = min(len(self._repl), self._link_seq - sent)
        batch: List[Any] = []
        last_ls = sent
        if n_unsent > 0:
            enc = self._delta_out
            # every unsent entry is unacked, so its issue time is here
            issued_at = self._issued_at
            for ls, msg in itertools.islice(
                self._repl, len(self._repl) - n_unsent, None
            ):
                if codec is None:
                    frame: Any = enc.encode_update(msg, ls, issued_at[ls])
                else:
                    frame = enc.pack_update(msg, ls, issued_at[ls], codec)
                batch.append(frame)
                last_ls = ls
        n_fetch = len(self._fetch)
        if n_fetch:  # interned against the serving site's table
            encode = wire.encode_fetch_request if codec is None else codec.pack_fetch
            itab = self._delta_out.itab
            batch.extend([encode(req, itab) for req in self._fetch])
        n_ctrl = len(self._ctrl)
        batch.extend(self._ctrl)
        return batch, last_ls, n_fetch, n_ctrl

    def _mark_sent(self, last_ls: int, n_fetch: int, n_ctrl: int, path: str) -> None:
        """The batch :meth:`_collect` built was handed to ``_conn``.
        Nothing else pops ``_fetch`` / ``_ctrl`` or collects between the
        two calls (inline: one synchronous block; writer task: ``_busy``
        holds inline writes off while its send is suspended), so the
        prefixes popped here are exactly the frames that were sent."""
        self._sent = last_ls
        # fetches are retired on send (fire-and-forget); ones enqueued
        # while a writer-task send was suspended stay for the next batch
        for _ in range(n_fetch):
            self._fetch.popleft()
        for _ in range(n_ctrl):
            # retired on send but still counted in the backlog via
            # ``_ctrl_unacked`` until ``sys.ctrl.ok`` lands
            self._ctrl.popleft()
            self._ctrl_unacked += 1
        self.flushes[path] += 1
        if self._flush_counters is not None:
            self._flush_counters[path].inc()

    async def _drain_queue(self, conn: Connection) -> None:
        """The writer task — the slow path behind :meth:`flush`:
        per wakeup, drain the WHOLE outbound FIFO with one coalesced
        flush (``send_many`` → one transport drain).  It returns once
        ``_conn`` is no longer this connection (an inline write found
        it dead), which makes ``_run`` reconnect."""
        while not self._closed and self._conn is conn:
            batch, last_ls, n_fetch, n_ctrl = self._collect()
            if not batch:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            self._busy = True
            try:
                await conn.send_many(batch)
            finally:
                self._busy = False
            self._mark_sent(last_ls, n_fetch, n_ctrl, "task")

    async def _read_replies(self, conn: Connection) -> None:
        """Route the peer's replies.  A reply field that is missing or
        mistyped raises ``WireError`` (as an undecodable body does):
        ``_run`` drops the connection and the next handshake resends
        from the last ack."""
        # an interned var id in a fetch reply resolves against the table
        # the serving site advertised at this connection's handshake
        link = self._delta_out
        itab = link.itab
        while True:
            frame = await conn.recv_message(itab, link)
            if frame is None:
                return
            if type(frame) is wire.Ack:
                # the gap to the applied watermark rides every ack
                self._note_applied(frame.ack - frame.applied_gap)
                self._retire(frame.ack)
                continue
            if type(frame) is FetchReply:
                self.owner._resolve_fetch(frame.fetch_id, frame)
                continue
            if type(frame) is not dict:
                continue  # no other message kind belongs on a link's reply side
            kind = link.restore(frame)["t"]
            if kind == "repl.ackp":
                ack = wire.field(frame, "a", int)
                self._note_applied(ack - wire.field(frame, "ap", int))
                self._retire(ack)
            elif kind == "sys.ctrl.ok":
                # the peer processed a control frame: its repair effects
                # (if any) are enqueued on the peer's own links now, so
                # they are visible to quiesce there — stop counting here
                self._ctrl_unacked = max(
                    0, self._ctrl_unacked - wire.field(frame, "n", int)
                )
            elif kind == "fetch.ok":
                reply = wire.decode_fetch_reply(frame, itab)
                self.owner._resolve_fetch(reply.fetch_id, reply)
            elif kind == "fetch.err":
                self.owner._resolve_fetch(wire.field(frame, "fid", int), frame)


class _RemoteRead:
    """One remote ``get`` in flight: what :meth:`SiteServer._resolve_fetch`
    needs to judge, merge or re-fetch a reply where it lands, and the
    one future the ``get`` handler awaits."""

    __slots__ = (
        "var", "server", "done", "deadline", "timeout", "stale", "fetch_id"
    )

    def __init__(
        self, var: VarId, server: SiteId, done: asyncio.Future, deadline: float
    ) -> None:
        self.var = var
        self.server = server
        self.done = done
        #: loop time by which the whole read (every re-fetch) must end
        self.deadline = deadline
        #: the handler's ``asyncio.timeout``, rescheduled per attempt
        self.timeout: Any = None
        #: stale replies so far
        self.stale = 0
        #: the id of the fetch whose answer the read awaits
        self.fetch_id = 0


class SiteServer:
    """One site of the networked KV cluster (see module docstring)."""

    def __init__(
        self,
        protocol: CausalProtocol,
        addresses: Dict[SiteId, str],
        transport: Transport,
        *,
        sanitizer: Any = None,
        recorder: Any = None,
        metrics: Any = None,
        read_timeout: float = 2.0,
        fetch_timeout: float = 2.0,
        seed: int = 0,
        flight_capacity: int = DEFAULT_FLIGHT_CAPACITY,
        flight_dir: Optional[str] = None,
        data_dir: Optional[str] = None,
        fsync: str = "group",
        snapshot_interval: Optional[float] = None,
        gossip_interval: Optional[float] = None,
    ) -> None:
        if protocol.site not in addresses:
            raise ServiceError(f"no address for site {protocol.site}")
        self.protocol = protocol
        self.site: SiteId = protocol.site
        self.addresses = dict(addresses)
        self.transport = transport
        self.sanitizer = sanitizer
        #: the always-on crash ring; ``recorder`` becomes the fan-out of
        #: the user's recorder (if any) and this ring, so every existing
        #: hook site feeds both without a second guard
        self.flight = FlightRecorder(
            capacity=flight_capacity,
            meta={
                "source": "flight",
                "site": int(protocol.site),
                "protocol": protocol.name,
            },
        )
        self.flight.bind_clock(self.now_ms)
        #: where :meth:`flight_dump` writes post-mortems (None = ring
        #: only: crashes still hold history, nothing lands on disk)
        self.flight_dir = flight_dir
        if recorder is not None and recorder.enabled:
            self.recorder = TeeRecorder(recorder, self.flight)
        else:
            self.recorder = self.flight
        # protocol-internal events (dep-log prunes) follow the same
        # fan-out; the server owns its protocol instance exclusively
        protocol.obs = self.recorder
        self.metrics = metrics
        #: counters :meth:`metric` already resolved, by name and labels
        self._counters: Dict[Any, Any] = {}
        self.read_timeout = read_timeout
        self.fetch_timeout = fetch_timeout
        self.seed = seed
        #: the intern table this site advertises in handshakes: its
        #: placement's variable names, so both directions of a
        #: connection resolve against the same list
        self._itab = wire.InternTable(
            wire.intern_table_names(protocol.config.replicas_of)
        )

        #: this incarnation's identity for the link handshake: a
        #: restarted site restarts its link sequence numbers, so it must
        #: not inherit its predecessor's dedup state at the peers.
        #: Durable sites use the WAL's monotone incarnation counter
        #: instead of a random epoch (assigned below, after the WAL
        #: opens), so peers can order incarnations of the same site.
        self.epoch = int.from_bytes(os.urandom(6), "big")
        #: updates whose activation predicate was false on arrival
        self._parked: List[UpdateMessage] = []
        #: arrival timestamp per parked/applied write, for apply spans
        self._recv_at: Dict[WriteId, float] = {}
        #: last contiguously processed link sequence number per sender
        self._seen_ls: Dict[SiteId, int] = {}
        #: sender incarnation the dedup state belongs to, per sender
        self._peer_epoch: Dict[SiteId, int] = {}
        #: the accepting chain end of every open peer-link connection
        #: (made by its ``link.hello``, dropped with it) — the only ones
        #: whose ``repl*`` / ``sys.digest`` / ``sys.range`` are honoured
        self._delta_in: Dict[Connection, wire.DeltaDecoder] = {}
        #: link sequences of currently *parked* updates per sender, plus
        #: the reverse index used to clear them on apply — together they
        #: yield the applied watermark ``ap`` acks advertise
        self._parked_ls: Dict[SiteId, Set[int]] = {}
        self._park_of: Dict[WriteId, Tuple[SiteId, int]] = {}
        #: waiters notified after every apply (read gates, parked reads)
        self._progress = asyncio.Condition()
        #: number of tasks blocked in ``_wait_for`` — lets the apply hot
        #: path skip the notify task when nobody is waiting
        self._waiting = 0
        self._links: Dict[SiteId, PeerLink] = {}
        #: remote reads in flight, by the id of their outstanding fetch
        self._fetch_waiters: Dict[int, _RemoteRead] = {}
        #: origin issue stamp (whole ms) per in-flight write, stripped
        #: from ``repl.t`` frames; consumed at apply into the per-origin
        #: visibility histogram
        self._issue_ms: Dict[WriteId, int] = {}
        #: cached per-origin ``visibility_latency_ms`` histogram handles
        #: (skips the label-formatting lookup on the apply hot path)
        self._vis_hist: Dict[SiteId, Any] = {}
        #: established inbound connections, closed on stop()
        self._server_conns: Set[Connection] = set()
        self._listener: Optional[Listener] = None
        self._stopped = asyncio.Event()
        self._t0 = 0.0
        self.applies = 0

        # ---- durability + gossip state -------------------------------
        #: highest applied write sequence per origin site (this site's
        #: own writes included).  Gaps below the watermark are writes
        #: this site does not replicate; writes destined here apply in
        #: origin order (program order at the origin is causal order),
        #: so the maximum doubles as the contiguous floor for
        #: destined-here traffic — the stable timestamp gossip digests
        #: and snapshot coverage are built on.
        self._origin_applied: Dict[SiteId, int] = {}
        #: own write clock -> this site's update messages for that
        #: write, kept until every destination acked (then pruned via
        #: :meth:`_own_retired`) — the corpus gossip repair ships from
        self._own_log: Dict[int, List[UpdateMessage]] = {}
        #: parked updates surviving from a PREVIOUS incarnation of their
        #: sender, per sender (see :meth:`_handle_hello`): while any
        #: exist, the applied watermark advertised to that sender clamps
        #: to 0 so its ack-driven GC cannot prune destinations that have
        #: not actually applied those writes
        self._stale_parked: Dict[SiteId, int] = {}
        self.gossip_interval = gossip_interval
        self.snapshot_interval = snapshot_interval
        self._gossip_task: Optional[asyncio.Task] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        #: the write-ahead log, or None for a memory-only site.  Opening
        #: it bumps the incarnation counter durably and loads any
        #: committed snapshot; :meth:`_recover` restores it and replays
        #: the WAL suffix, streamed one record at a time, synchronously
        #: before the server takes traffic.
        self.wal: Optional[SiteWal] = None
        #: WAL records replayed by this incarnation's recovery
        self.wal_replayed = 0
        if data_dir is not None:
            self.wal = SiteWal(data_dir, fsync=fsync)
            self.epoch = self.wal.incarnation
            recovered = self._recover(self.wal.snapshot, self.wal.frames())
            # the snapshot frame is restored; do not hold it for the
            # incarnation's whole life
            self.wal.snapshot = None
            if recovered:
                self.metric("service_recoveries_total")
                self.flight_dump("recovery")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        if self._t0 == 0.0:
            self._t0 = loop.time()
        self._listener = await self.transport.listen(
            self.addresses[self.site], self._handle_conn
        )
        if self.wal is not None:
            self.wal.start()
            if self.snapshot_interval is not None and self._snapshot_task is None:
                self._snapshot_task = asyncio.ensure_future(self._snapshot_loop())
        if self.gossip_interval is not None and self._gossip_task is None:
            self._gossip_task = asyncio.ensure_future(self._gossip_loop())

    def set_clock_origin(self, t0: float) -> None:
        """Share one time origin across a co-hosted cluster so recorder
        spans from different sites are mutually ordered."""
        self._t0 = t0

    def now_ms(self) -> float:
        return (asyncio.get_event_loop().time() - self._t0) * 1000.0

    async def stop(self) -> None:
        self._stopped.set()
        # take-then-clear before each await: concurrent stop() calls
        # must not double-close the listener or the links
        for attr in ("_gossip_task", "_snapshot_task"):
            task = getattr(self, attr)
            setattr(self, attr, None)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        listener, self._listener = self._listener, None
        if listener is not None:
            await listener.close()
        # sever established connections so clients see EOF instead of a
        # site that accepts requests it can no longer serve
        for conn in list(self._server_conns):
            await conn.close()
        links = list(self._links.values())
        self._links.clear()
        for link in links:
            await link.close()
        for read in self._fetch_waiters.values():
            read.done.cancel()
        self._fetch_waiters.clear()
        if self.wal is not None:
            self.wal.close()

    @property
    def stopped(self) -> bool:
        return self._stopped.is_set()

    def metric(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Count on ``name{site=..., **labels}``.  The series is looked
        up in the registry (which formats its sorted-label key string)
        the first time only; afterwards the bound counter is a dict hit."""
        if self.metrics is None:
            return
        key = (name, *labels.items()) if labels else name
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.metrics.counter(
                name, site=self.site, **labels
            )
        counter.inc(amount)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(self, conn: Connection) -> None:
        if self.stopped:
            await conn.close()
            return
        self._server_conns.add(conn)
        try:
            while True:
                # drain every frame already waiting and apply the batch
                # before acking once
                frames = await conn.recv_messages(
                    self._itab, self._delta_in.get(conn)
                )
                if frames is None:
                    return
                if self.stopped:
                    # stop() can land between recv and dispatch: refuse
                    # rather than half-serve — a put accepted here would
                    # be acked to the client but never replicated, the
                    # peer links are already closed
                    await conn.send(
                        wire.err_frame(
                            "shutting-down",
                            f"site {self.site} is shutting down",
                        )
                    )
                    return
                if conn.agreed_version != wire.WIRE_VERSION:
                    # nothing but a hello opens a connection (its ``cv``
                    # is checked where it is handled, see _accept_hello)
                    first = frames[0]
                    kind = first["t"] if type(first) is dict else type(first).__name__
                    if kind not in ("hello", "link.hello"):
                        raise wire.unsupported_version(
                            None, f"a {kind} frame before any hello"
                        )
                await self._dispatch_batch(conn, frames)
        except (ConnectionError, OSError):
            return
        except ServiceUnavailableError as exc:
            # e.g. _link() refusing after stop(); retriable at the client
            try:
                await conn.send(wire.err_frame("shutting-down", str(exc)))
            except (ConnectionError, OSError):
                pass
        except WireError as exc:
            # ``bad-frame``, or ``unsupported-version`` for the support
            # window's refusal; either way this connection is done
            try:
                await conn.send(wire.err_frame(exc.code, str(exc)))
            except (ConnectionError, OSError):
                pass
        except SanitizerViolation:
            # the causal sanitizer refused a transition: dump the flight
            # ring before this handler task dies — the last moments of
            # the site are exactly what the post-mortem needs
            self.flight_dump("sanitizer-violation")
            raise
        except Exception:
            self.flight_dump("handler-error")
            raise
        finally:
            if conn in self._delta_in:  # a link connection: its chain end goes with it
                del self._delta_in[conn]
            self._server_conns.discard(conn)
            await conn.close()

    async def _dispatch(self, conn: Connection, frame: Any) -> None:
        """Route one inbound frame.  The request kinds arrive either as
        the message :func:`wire.decode_message` built in one pass or as
        a frame dict (connections that only speak dicts, hand-typed
        JSON); both reach the same handler with the same arguments.
        Repl and fetch frames never get here: :meth:`_dispatch_batch`
        takes them."""
        cls = type(frame)
        if cls is wire.Put:
            await self._handle_put(conn, frame.var, frame.value)
            return
        if cls is wire.Get:
            await self._handle_get(conn, frame.var)
            return
        if cls is not dict:
            # a reply kind (an ack, a put.ok, ...) sent *to* a server
            await conn.send(
                wire.err_frame("bad-frame", f"unexpected {cls.__name__} frame")
            )
            return
        kind = frame["t"]
        if kind == "put":
            await self._handle_put(
                conn, wire.resolve_var(frame["var"], self._itab), frame["value"]
            )
        elif kind == "get":
            await self._handle_get(conn, wire.resolve_var(frame["var"], self._itab))
        elif kind == "link.hello":
            await self._handle_hello(conn, frame)
        elif kind == "hello":
            await self._handle_client_hello(conn, frame)
        elif kind == "sys.stats":
            await self._handle_stats(conn)
        elif kind in ("sys.digest", "sys.range") and conn in self._delta_in:
            # gossip control frames: link connections only (what a
            # connection may send follows from which hello opened it);
            # anywhere else they fall through to "unknown type"
            if kind == "sys.digest":
                await self._handle_digest(conn, frame)
            else:
                await self._handle_range(conn, frame)
        elif kind == "ping":
            await conn.send(wire.make_frame("ping.ok", site=self.site))
        elif kind == "kill":
            await conn.send(wire.make_frame("kill.ok", site=self.site))
            # mark stopped before the async teardown runs so any frame
            # already in flight is refused, not half-served
            self._stopped.set()
            self.flight_dump("chaos-kill-site")
            asyncio.ensure_future(self.stop())
        else:
            await conn.send(wire.err_frame("bad-frame", f"unknown type {kind!r}"))

    async def _dispatch_batch(self, conn: Connection, frames: List[Any]) -> None:
        """Process a whole batch of frames, then signal progress once
        and ack cumulatively.

        Repl frames are ingested synchronously (applied or parked — no
        awaits, preserving the single-writer discipline) while their
        acks are *deferred*: per sender we track the highest contiguous
        sequence processed and emit ONE ``repl.ackp`` per batch.  The
        parked-update rescan (:meth:`_drain`) also runs once per batch —
        an update a per-frame drain would have applied mid-batch is
        applied by the batch-end drain instead, before any ack covering
        it is sent, so the ack contract (processed ⇒ in protocol state)
        holds.  Other frames flush pending repl work first so a get
        arriving behind a burst of updates observes them; fetches wait
        for the end of the batch (:meth:`_handle_fetch`), so a reply
        also covers the updates queued behind its fetch."""
        acks: Dict[SiteId, int] = {}
        applied = 0
        fetches: List[FetchRequest] = []
        link = self._delta_in.get(conn)
        for frame in frames:
            cls = type(frame)
            if link is not None and cls is dict:
                link.restore(frame)
            if self.stopped:
                await self._flush_repl(conn, acks, applied)
                await conn.send(
                    wire.err_frame(
                        "shutting-down", f"site {self.site} is shutting down"
                    )
                )
                return
            if cls is wire.ReplFrame or (cls is dict and frame["t"] in _REPL_KINDS):
                if link is None:
                    raise WireError(
                        "repl frame on a connection no link.hello opened"
                    )
                applied += self._ingest_repl(link, frame, acks)
            elif cls is FetchRequest:
                fetches.append(frame)
            elif cls is dict and frame["t"] == "fetch":
                fetches.append(wire.decode_fetch_request(frame, self._itab))
            else:
                applied = await self._flush_repl(conn, acks, applied)
                await self._dispatch(conn, frame)
        await self._flush_repl(conn, acks, applied)
        for req in fetches:
            await self._handle_fetch(conn, req)

    def _ingest_repl(
        self, link: wire.DeltaDecoder, frame: Any, acks: Dict[SiteId, int]
    ) -> int:
        """Process one repl frame of ``link`` — parsed in one pass
        (:class:`wire.ReplFrame`) or a restored frame dict — without
        acking or draining; returns the number of updates applied (0 =
        dup/gap/parked).  Only the contiguous next frame is decoded
        through the link's chain: duplicates and gaps never touch it."""
        parsed = type(frame) is wire.ReplFrame
        if parsed:
            src, link_seq = frame.src, frame.ls
        else:
            src = int(frame["src"])
            link_seq = int(frame["ls"])
        seen = self._seen_ls.get(src, 0)
        if link_seq <= seen:
            # resend of a frame processed earlier; fold the cumulative
            # re-ack into this batch's ack
            self.metric("service_repl_dups_total")
            acks[src] = max(acks.get(src, 0), seen)
            return 0
        if link_seq != seen + 1:
            # gap: an earlier frame of this link was lost in flight.
            # Don't ack, don't advance — advancing here would silently
            # skip the lost update forever; the sender renegotiates from
            # the last contiguous ack at its next handshake and resends.
            # The ack for the contiguous prefix, if any, still goes out
            self.metric("service_repl_gaps_total")
            return 0
        if parsed:
            it, raw = frame.it, None
            msg = link.unpack_update(frame)
        else:
            # strip the issue-time stamp BEFORE the chained-delta decode —
            # the decoder dispatches on the restored base frame type
            it = wire.strip_issue(frame)
            raw = frame.pop("_raw", None)
            if raw is not None and not isinstance(frame.get("var"), str):
                raw = None  # interned var id: the body needs the link's table
            msg = link.decode_update(frame, self._itab)
        if self.wal is not None:
            # logged before the apply/park decision (and before the
            # origin-dup guard — the guard still ACKS, and an acked
            # link-sequence advance must survive a restart or the
            # sender, which retires on ack, would leave a permanent
            # gap), in the same synchronous block as both
            if raw is not None:
                self.wal.append_raw(raw)
            else:
                # the durable twin of the frame: same fields, never
                # interned, never lean — a WAL record must decode with
                # no connection state
                self.wal.append(
                    wire.BINARY_CODEC.pack_update(msg, link_seq, wal=True)
                )
        if self._is_origin_dup(msg):
            # a gossip re-ship (or a recovered sender replaying history)
            # delivered a write this site's state already covers: ack
            # and advance the link without touching the protocol —
            # applying it twice would break exactly-once application
            self.metric("service_origin_dups_total")
            self._seen_ls[src] = link_seq
            acks[src] = max(acks.get(src, 0), link_seq)
            return 0
        if it is not None:
            self._issue_ms[msg.write_id] = it
        now = self.now_ms()
        self._recv_at[msg.write_id] = now
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_deliver(now, self.site, msg.write_id)
        applied = 0
        if self.protocol.can_apply(msg):
            self._apply(msg)
            applied = 1
        else:
            if rec is not None and rec.enabled:
                rec.on_buffered(
                    now, self.site, msg.write_id, self.protocol.blocking_deps(msg) or ()
                )
            self._park(src, link_seq, msg)
        self._seen_ls[src] = link_seq
        acks[src] = max(acks.get(src, 0), link_seq)
        return applied

    def _is_origin_dup(self, msg: UpdateMessage) -> bool:
        """True when this site already holds the write — applied (at or
        below the origin watermark) or parked.  The guard is what lets
        gossip re-ships overlap normal delivery: the protocols either
        refuse a second apply outright (opt-track's non-monotonic-apply
        check) or would park the duplicate forever (the dense-order
        vector protocols), so a duplicate must be absorbed here."""
        wid = msg.write_id
        return (
            wid.seq <= self._origin_applied.get(wid.site, 0)
            or wid in self._park_of
        )

    def _own_retired(self, msg: UpdateMessage) -> None:
        """A destination acked ``msg`` (it is durable there): release
        this site's own-log copy for that destination.  The entry — and
        with it the write's eligibility for gossip repair — disappears
        once every destination acked."""
        entry = self._own_log.get(msg.write_id.seq)
        if entry is None:
            return
        entry[:] = [m for m in entry if m.dest != msg.dest]
        if not entry:
            del self._own_log[msg.write_id.seq]

    def _park(self, src: SiteId, link_seq: int, msg: UpdateMessage) -> None:
        """Buffer an update whose activation predicate is false, and
        record its link sequence: the applied watermark ``ap`` stops
        just short of the oldest parked sequence."""
        self._parked.append(msg)
        self._parked_ls.setdefault(src, set()).add(link_seq)
        self._park_of[msg.write_id] = (src, link_seq)

    def _applied_ls(self, src: SiteId) -> int:
        """Highest contiguous link sequence from ``src`` whose update
        was *applied* — the GC watermark acks advertise.  Everything
        processed is applied unless still parked, so this is ``seen``
        capped below the oldest parked sequence.  While updates from a
        PREVIOUS incarnation of ``src`` are still parked the watermark
        clamps to 0: the new incarnation's numbering says nothing about
        them, and advertising progress would let the sender's
        Condition-1 GC prune destinations that never applied those
        writes — a causal-soundness violation, not just a perf bug."""
        if self._stale_parked.get(src):
            return 0
        parked = self._parked_ls.get(src)
        if parked:
            return min(parked) - 1
        return self._seen_ls.get(src, 0)

    async def _flush_repl(
        self, conn: Connection, acks: Dict[SiteId, int], applied: int
    ) -> int:
        """Drain parked updates once for the batch's applies, then send
        one cumulative ack per sender.  Returns the new applied count
        (always 0) for callers that thread it through."""
        if applied:
            self._drain()
        if acks:
            self.metric("service_ack_batches_total")
            link = self._delta_in[conn]
            for src, ack in acks.items():
                await self._send_ack(conn, link, ack, src)
            acks.clear()
        return 0

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    async def _handle_put(self, conn: Connection, var: VarId, value: Any) -> None:
        now = self.now_ms()
        proto = self.protocol
        result: WriteResult = proto.write(var, value)
        if self.wal is not None:
            self.wal.append(
                wire.BINARY_CODEC.pack_wal_put(var, value, result.write_id)
            )
        if result.write_id.seq > self._origin_applied.get(self.site, 0):
            self._origin_applied[self.site] = result.write_id.seq
        if result.messages:
            # kept until every destination acks (see _own_retired); the
            # corpus gossip repair re-ships missing updates from
            self._own_log[result.write_id.seq] = list(result.messages)
        if self.sanitizer is not None:
            self.sanitizer.on_write(
                self.site,
                var,
                result.write_id,
                tuple(proto.replicas(var)),
                result.applied_locally,
                now=now,
            )
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_issue(now, self.site, var, result.write_id, proto.replicas(var))
        # enqueued in the same synchronous block as protocol.write —
        # link-sequence order must stay write-clock order — but flushed
        # only after the reply below
        links: List[PeerLink] = []
        for msg in result.messages:
            if rec is not None and rec.enabled:
                rec.on_send(now, self.site, msg.dest, msg.write_id)
            link = self._link(msg.dest)
            link.enqueue_update(msg, flush=False)
            links.append(link)
        if result.applied_locally:
            self._drain()
        self.metric("service_requests_total", op="put")
        try:
            # reply first, flush second, same loop step: the flush makes
            # the destinations' handler tasks runnable, and a reply
            # queued behind them would hand the client their ingest time
            codec = conn.one_pass
            await conn.send(
                wire.make_frame("put.ok", w=wire.encode_write_id(result.write_id))
                if codec is None
                else codec.pack_put_ok(result.write_id)
            )
        finally:
            # also when the client is gone: the write is in this site's
            # state and must replicate regardless
            for link in links:
                link.flush()

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    async def _handle_get(self, conn: Connection, var: VarId) -> None:
        proto = self.protocol
        self.metric("service_requests_total", op="get")
        if proto.locally_replicates(var):
            if not await self._wait_for(lambda: proto.can_read_local(var)):
                self.metric("service_read_timeouts_total")
                await conn.send(
                    wire.err_frame(
                        "read-timeout",
                        f"local read of {var!r} still causally gated after "
                        f"{self.read_timeout}s",
                    )
                )
                return
            value, wid = proto.read_local(var)
            if self.wal is not None:
                # reads mutate protocol state (the deferred ~>co merge
                # of LastWriteOn metadata), so they are logged: losing a
                # read-merge across a crash would let post-recovery
                # writes under-state their causal past
                self.wal.append(wire.BINARY_CODEC.pack_wal_read(var))
            self._observe_read(var, wid)
            served_by = self.site
        else:
            try:
                value, wid = await self._remote_get(var)
            except ServiceUnavailableError as exc:
                self.metric("service_fetch_failures_total")
                await conn.send(wire.err_frame("unavailable", str(exc)))
                return
            served_by = proto.fetch_target(var)
        codec = conn.one_pass
        await conn.send(
            wire.make_frame(
                "get.ok", value=value, w=wire.encode_write_id(wid), by=served_by
            )
            if codec is None
            else codec.pack_get_ok(value, wid, served_by)
        )

    def _observe_read(self, var: VarId, wid: Optional[WriteId]) -> None:
        """The sanitizer's and the recorder's view of a completed read."""
        now = self.now_ms()
        if self.sanitizer is not None:
            self.sanitizer.on_read(self.site, var, wid, now=now)
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_read(now, self.site, var, wid)

    async def _remote_get(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        """The paper's RemoteFetch, run on the client's behalf: send the
        fetch and await the read's one future.  :meth:`_resolve_fetch`
        judges, merges or re-fetches each reply where it lands; this
        only bounds the wait — ``fetch_timeout`` per attempt (the
        timeout is rescheduled at each re-fetch) and ``read_timeout``
        for the whole read."""
        proto = self.protocol
        server = proto.fetch_target(var)
        link = self._link(server)
        loop = asyncio.get_running_loop()
        now = loop.time()
        read = _RemoteRead(
            var, server, loop.create_future(), now + self.read_timeout
        )
        req = proto.make_fetch_request(var, server)
        try:
            async with asyncio.timeout_at(
                min(now + self.fetch_timeout, read.deadline)
            ) as read.timeout:
                self._send_fetch(link, req, read)
                return await read.done
        except TimeoutError:
            raise ServiceUnavailableError(
                f"fetch of {var!r} from site {server} timed out"
                + (f" after {read.stale} stale replies" if read.stale else "")
            ) from None
        finally:
            self._fetch_waiters.pop(read.fetch_id, None)

    def _send_fetch(
        self, link: PeerLink, req: FetchRequest, read: _RemoteRead
    ) -> None:
        read.fetch_id = req.fetch_id
        self._fetch_waiters[req.fetch_id] = read
        link.enqueue_fetch(req)

    def _resolve_fetch(self, fetch_id: int, reply: Any) -> None:
        """Complete the remote read a fetch answer — a decoded
        :class:`FetchReply`, or a ``fetch.err`` frame dict — belongs to.
        The link reader calls this in the step that read the answer, so
        the reply is judged in FIFO order with the acks behind it on the
        connection: an ack processed first could let ack-driven GC clear
        the serving site from the very log records
        :meth:`~repro.core.base.CausalProtocol.reply_is_fresh` checks,
        and a reply this site's own completed write made stale would
        pass.  A fresh reply is logged, merged and observed in one
        synchronous block; a stale one is discarded unmerged and
        re-fetched naming exactly the records its snapshot missed
        (:meth:`~repro.core.base.CausalProtocol.stale_deps`), which the
        serving site parks until it has applied them."""
        read = self._fetch_waiters.pop(fetch_id, None)
        if read is None or read.done.done():
            return  # the read timed out or was cancelled meanwhile
        proto = self.protocol
        try:
            if type(reply) is not FetchReply:
                raise ServiceUnavailableError(
                    f"site {read.server} could not serve {read.var!r}: "
                    f"{reply.get('code')} ({reply.get('msg')})"
                )
            if proto.reply_is_fresh(reply):
                if self.wal is not None:
                    # same reasoning as wal.read: completing a remote
                    # read merges the reply's metadata into local state
                    self.wal.append(wire.BINARY_CODEC.pack_wal_rfetch(reply))
                value, wid = proto.complete_remote_read(reply)
                self._observe_read(read.var, wid)
                read.done.set_result((value, wid))
                return
            read.stale += 1
            self.metric("service_stale_replies_total")
            if read.stale > MAX_STALE_FETCH_RETRIES:
                raise ServiceUnavailableError(
                    f"remote read of {read.var!r} stale after "
                    f"{read.stale - 1} retries: site {read.server} never "
                    f"applied a causally required update"
                )
            read.timeout.reschedule(
                min(
                    asyncio.get_running_loop().time() + self.fetch_timeout,
                    read.deadline,
                )
            )
            req = FetchRequest(
                read.var,
                self.site,
                read.server,
                proto.next_fetch_id(),
                proto.stale_deps(reply),
            )
            self._send_fetch(self._link(read.server), req, read)
        except Exception as exc:
            # raised in the get handler, as if the read had completed
            # there (a sanitizer violation still dumps the flight ring);
            # the link reader goes on reading
            read.done.set_exception(exc)

    # ------------------------------------------------------------------
    # peer traffic
    # ------------------------------------------------------------------
    @staticmethod
    def _accept_hello(frame: Dict[str, Any]) -> None:
        """The support window, accepting side: a hello is answered only
        when it carries the current ``cv``.  Raised *before* the hello
        touches any state; :meth:`_handle_conn` turns it into the one
        ``unsupported-version`` error and closes the connection."""
        offered = frame.get("cv")
        if type(offered) is not int or offered != wire.WIRE_VERSION:
            raise wire.unsupported_version(offered, f"a {frame['t']}")

    async def _handle_hello(self, conn: Connection, frame: Dict[str, Any]) -> None:
        self._accept_hello(frame)
        src = wire.field(frame, "src", int)
        epoch = wire.field(frame, "epoch", int)
        if self._peer_epoch.get(src) != epoch:
            # a new sender incarnation restarts its link sequence at 1:
            # the dedup high-water mark must restart with it, or every
            # frame from the restarted site would be dropped as a dup —
            # and the parked-sequence bookkeeping refers to the old
            # incarnation's numbering, so it restarts too.
            # The parked updates themselves are KEPT: they were acked to
            # the dead incarnation, which may have pruned them from its
            # own log, so dropping them here could lose them forever.
            # They survive re-keyed to the sentinel sequence 0 (their
            # old numbering is meaningless now) and counted in
            # ``_stale_parked``, which clamps the applied watermark this
            # site advertises to the new incarnation (see _applied_ls).
            if self.wal is not None:
                self.wal.append(
                    wire.make_frame("wal.hello", src=src, epoch=epoch)
                )
            self._peer_epoch[src] = epoch
            self._seen_ls[src] = 0
            stale = 0
            for wid, (s, ls) in list(self._park_of.items()):
                if s == src and ls:
                    self._park_of[wid] = (src, 0)
                    stale += 1
            if stale:
                self._stale_parked[src] = self._stale_parked.get(src, 0) + stale
            self._parked_ls.pop(src, None)
        # a link connection from here on, with a fresh chain end
        self._delta_in[conn] = wire.DeltaDecoder(src, self.site)
        # the link.ok itself travels under the codec the hello arrived
        # with (JSON on a fresh connection); only the frames AFTER the
        # handshake switch
        await conn.send(
            wire.make_frame(
                "link.ok",
                site=self.site,
                ack=self._seen_ls.get(src, 0),
                cv=wire.WIRE_VERSION,
                itab=list(self._itab.names),
                ap=self._applied_ls(src),
            )
        )
        conn.negotiate(wire.BINARY_CODEC_V4, wire.WIRE_VERSION)

    async def _handle_client_hello(
        self, conn: Connection, frame: Dict[str, Any]
    ) -> None:
        self._accept_hello(frame)
        await conn.send(
            wire.make_frame(
                "hello.ok",
                site=self.site,
                cv=wire.WIRE_VERSION,
                itab=list(self._itab.names),
            )
        )
        conn.negotiate(wire.BINARY_CODEC_V4, wire.WIRE_VERSION)

    async def _send_ack(
        self, conn: Connection, link: wire.DeltaDecoder, ack: int, src: SiteId
    ) -> None:
        # the applied watermark rides every ack as the gap
        # ``ack - applied`` (usually 0 — one byte); the link chains ``a``
        gap = ack - self._applied_ls(src)
        try:
            await conn.send(link.pack_ack(ack, gap, conn.one_pass))
        except (ConnectionError, OSError):
            # sender is gone; it relearns the ack at its next handshake
            pass

    async def _handle_fetch(self, conn: Connection, req: FetchRequest) -> None:
        """Answer a fetch this site can already serve in the handler's
        own step — after its batch's repl frames are applied and acked
        (see :meth:`_dispatch_batch`).  One that must wait on apply
        progress is parked in its own task: the repl frames that
        unblock it may arrive in a later batch on this very connection,
        and waiting here would deadlock the link (head-of-line
        blocking)."""
        if self.protocol.can_serve_fetch(req):
            await self._answer_fetch(conn, req)
        else:
            asyncio.ensure_future(self._park_fetch(conn, req))

    async def _park_fetch(self, conn: Connection, req: FetchRequest) -> None:
        proto = self.protocol
        if not await self._wait_for(lambda: proto.can_serve_fetch(req)):
            self.metric("service_fetch_defer_timeouts_total")
            try:
                await conn.send(
                    wire.make_frame(
                        "fetch.err",
                        fid=req.fetch_id,
                        code="read-timeout",
                        msg=f"fetch of {req.var!r} still causally "
                        f"gated after {self.read_timeout}s",
                    )
                )
            except (ConnectionError, OSError):
                pass
            return
        await self._answer_fetch(conn, req)

    async def _answer_fetch(self, conn: Connection, req: FetchRequest) -> None:
        reply = self.protocol.serve_fetch(req)
        try:
            # our own advertised table — the requester holds a copy
            # from this link's handshake
            itab = self._itab
            codec = conn.one_pass
            await conn.send(
                wire.encode_fetch_reply(reply, compact=True, itab=itab)
                if codec is None
                else codec.pack_fetch_ok(reply, True, itab)
            )
        except (ConnectionError, OSError):
            # requester is gone; its timeout/failover handles the loss
            pass

    # ------------------------------------------------------------------
    # durability + gossip anti-entropy
    # ------------------------------------------------------------------
    async def _handle_digest(self, conn: Connection, frame: Dict[str, Any]) -> None:
        """Answer a peer's watermark digest.  The repair itself is
        synchronous, so every re-shipped update is on a link queue —
        visible to quiesce — before the ``sys.ctrl.ok`` releases the
        sender's in-flight control accounting."""
        shipped = gossip_proto.handle_digest(self, frame)
        if shipped:
            self.metric("service_gossip_pushes_total", shipped)
        await conn.send(wire.make_frame("sys.ctrl.ok", n=1))

    async def _handle_range(self, conn: Connection, frame: Dict[str, Any]) -> None:
        """Serve a peer's own-origin range request (see the gossip
        module); acked with ``sys.ctrl.ok`` after the re-ships are
        enqueued, like digests."""
        shipped = gossip_proto.handle_range(self, frame)
        self.metric("service_gossip_ranges_total")
        if shipped:
            self.metric("service_gossip_pushes_total", shipped)
        await conn.send(wire.make_frame("sys.ctrl.ok", n=1))

    async def _gossip_loop(self) -> None:
        """Round-robin one digest per interval (with jitter, so a
        co-hosted cluster's rounds interleave instead of thundering)."""
        rng = np.random.default_rng(
            (self.seed * 9_176_471 + self.site) & 0x7FFFFFFF
        )
        peers = sorted(s for s in self.addresses if s != self.site)
        if not peers:
            return
        i = int(rng.integers(0, len(peers)))
        while not self.stopped:
            await asyncio.sleep(
                self.gossip_interval * (0.75 + 0.5 * float(rng.uniform()))
            )
            if self.stopped:
                return
            try:
                link = self._link(peers[i % len(peers)])
            except ServiceUnavailableError:
                return
            i += 1
            link.enqueue_ctrl(gossip_proto.digest_frame(self))
            self.metric("service_gossip_digests_total")

    async def _snapshot_loop(self) -> None:
        while not self.stopped:
            await asyncio.sleep(self.snapshot_interval)
            if self.stopped:
                return
            await self.snapshot_now()

    async def snapshot_now(self) -> None:
        """Capture a stable-timestamp snapshot and retire the WAL prefix
        it covers.  Capture and WAL rotation are one synchronous block —
        the snapshot and the rotation point describe the same instant —
        and only the durable commit (tmp + fsync + rename, then segment
        unlink, in that order) runs off-loop."""
        wal = self.wal
        if wal is None or self.stopped:
            return
        frame = self._snapshot_frame()
        covered = wal.begin_snapshot()
        await wal.commit_snapshot(frame, covered)
        self.metric("service_snapshots_total")

    def _snapshot_frame(self) -> Dict[str, Any]:
        """Everything a restart needs beyond the WAL suffix, as plain
        wire-encodable data: protocol state, per-link dedup watermarks
        and peer epochs, per-origin stable timestamps, parked updates
        (stale ones under the sentinel sequence 0), and the unacked
        own-write log."""
        seen: List[int] = []
        for s in sorted(self._seen_ls):
            seen.extend((int(s), int(self._seen_ls[s])))
        epochs: List[int] = []
        for s in sorted(self._peer_epoch):
            epochs.extend((int(s), int(self._peer_epoch[s])))
        origin: List[int] = []
        for s in sorted(self._origin_applied):
            origin.extend((int(s), int(self._origin_applied[s])))
        parked: List[List[Any]] = []
        for msg in self._parked:
            src, ls = self._park_of.get(msg.write_id, (msg.sender, 0))
            parked.append([int(src), int(ls), wire.encode_update(msg, int(ls))])
        own: List[Dict[str, Any]] = []
        for clock in sorted(self._own_log):
            for msg in self._own_log[clock]:
                own.append(wire.encode_update(msg, 0))
        return wire.make_frame(
            "snap",
            site=int(self.site),
            inc=int(self.epoch),
            applies=int(self.applies),
            proto=self.protocol.state_snapshot(),
            seen=seen,
            epochs=epochs,
            origin=origin,
            parked=parked,
            own=own,
        )

    def _recover(
        self,
        snapshot: Optional[Dict[str, Any]],
        frames: Iterable[Dict[str, Any]],
    ) -> bool:
        """Rebuild in-memory state from the committed snapshot plus the
        WAL suffix, counting :attr:`wal_replayed` as the frames go by.
        Runs in ``__init__``, strictly before the server takes traffic,
        with no observers: the sanitizer, recorder, and metrics already
        saw these transitions when they happened live.  Returns True
        when there was anything to recover."""
        if snapshot is not None:
            if int(snapshot.get("site", self.site)) != int(self.site):
                raise WalCorruptionError(
                    f"snapshot belongs to site {snapshot.get('site')}, "
                    f"not site {self.site} (wrong data dir?)"
                )
            self.protocol.state_restore(snapshot["proto"])
            it = iter(snapshot.get("seen") or ())
            self._seen_ls = {int(s): int(v) for s, v in zip(it, it)}
            it = iter(snapshot.get("epochs") or ())
            self._peer_epoch = {int(s): int(v) for s, v in zip(it, it)}
            it = iter(snapshot.get("origin") or ())
            self._origin_applied = {int(s): int(v) for s, v in zip(it, it)}
            self.applies = int(snapshot.get("applies", 0))
            for src, ls, f in snapshot.get("parked") or ():
                msg = wire.decode_update(f)
                self._parked.append(msg)
                self._park_of[msg.write_id] = (int(src), int(ls))
                if int(ls):
                    self._parked_ls.setdefault(int(src), set()).add(int(ls))
                else:
                    self._stale_parked[int(src)] = (
                        self._stale_parked.get(int(src), 0) + 1
                    )
            for f in snapshot.get("own") or ():
                msg = wire.decode_update(f)
                self._own_log.setdefault(msg.write_id.seq, []).append(msg)
        for frame in frames:
            self._replay(frame)
            self.wal_replayed += 1
        return snapshot is not None or self.wal_replayed > 0

    def _replay(self, frame: Dict[str, Any]) -> None:
        """Re-run one WAL record against the protocol.  Deterministic
        relative to the live run: apply/park decisions depend only on
        the message metadata and the apply clocks, and both are exactly
        what they were when the record was written.  Ack-driven GC
        effects (``note_remote_apply``) are NOT replayed — a recovered
        site carries fatter dependency logs, which is a safe
        over-approximation."""
        kind = frame["t"]
        if kind == "wal.put":
            var = frame["var"]
            result = self.protocol.write(var, frame["value"])
            logged = wire.decode_write_id(frame["w"])
            if result.write_id != logged:
                raise WalCorruptionError(
                    f"replaying the WAL regenerated write {result.write_id} "
                    f"for {var!r} where the log says {logged} — snapshot "
                    f"and WAL disagree; refusing to diverge"
                )
            if result.write_id.seq > self._origin_applied.get(self.site, 0):
                self._origin_applied[self.site] = result.write_id.seq
            if result.messages:
                self._own_log[result.write_id.seq] = list(result.messages)
            if result.applied_locally:
                self._drain(replay=True)
        elif kind in ("wal.repl", "repl", "repl.t"):
            # raw-passthrough records (SiteWal.append_raw) keep their
            # on-wire type and may carry an issue stamp; live frames
            # never reach the log un-renamed, so a plain repl kind in
            # the WAL is unambiguously a logged replicated update
            wire.strip_issue(frame)
            src = int(frame["src"])
            ls = int(frame["ls"])
            msg = wire.decode_update(frame)
            if not self._is_origin_dup(msg):
                if self.protocol.can_apply(msg):
                    self._apply(msg, replay=True)
                    self._drain(replay=True)
                else:
                    self._park(src, ls, msg)
            if ls > self._seen_ls.get(src, 0):
                self._seen_ls[src] = ls
        elif kind == "wal.hello":
            # mirror of _handle_hello's epoch-change block: reset the
            # dedup state, keep parked updates under the stale sentinel
            src = int(frame["src"])
            self._peer_epoch[src] = int(frame["epoch"])
            self._seen_ls[src] = 0
            stale = 0
            for wid, (s, ls) in list(self._park_of.items()):
                if s == src and ls:
                    self._park_of[wid] = (src, 0)
                    stale += 1
            if stale:
                self._stale_parked[src] = self._stale_parked.get(src, 0) + stale
            self._parked_ls.pop(src, None)
        elif kind == "wal.read":
            # reads mutate state (the deferred ~>co merge) — that is the
            # only reason they are in the log at all
            self.protocol.read_local(frame["var"])
        elif kind == "wal.rfetch":
            reply = FetchReply(
                var=frame["var"],
                value=frame["value"],
                write_id=wire.decode_write_id(frame["w"]),
                server=int(frame["sv"]),
                requester=self.site,
                fetch_id=0,
                meta=wire.decode_meta(frame["meta"]),
                applied=wire.decode_meta(frame["applied"]),
            )
            self.protocol.complete_remote_read(reply)
        else:
            raise WalCorruptionError(f"unknown WAL record type {kind!r}")

    # ------------------------------------------------------------------
    # observability plane
    # ------------------------------------------------------------------
    async def _handle_stats(self, conn: Connection) -> None:
        """Answer ``sys.stats`` (any handshaken connection may ask)."""
        self.metric("service_requests_total", op="stats")
        snapshot = self._stats_snapshot()
        await conn.send(
            wire.make_frame("sys.stats.ok", site=self.site, stats=snapshot)
        )

    def _stats_snapshot(self) -> Dict[str, Any]:
        """One synchronous stats snapshot (single-writer discipline: no
        awaits, so nothing here sees a half-applied protocol state).
        Keys of the per-peer maps are stringified site ids so the JSON
        and binary codecs carry the identical shape."""
        self.refresh_gauges()
        links: Dict[str, Any] = {}
        for dest in sorted(self._links):
            links[str(int(dest))] = self._links[dest].stats()
        inbound: Dict[str, Any] = {}
        for src in sorted(self._seen_ls):
            inbound[str(int(src))] = {
                "seen": self._seen_ls[src],
                "applied": self._applied_ls(src),
                "parked": len(self._parked_ls.get(src, ())),
            }
        snap: Dict[str, Any] = {
            "site": int(self.site),
            "epoch": int(self.epoch),
            "uptime_ms": self.now_ms(),
            "applies": int(self.applies),
            "parked": len(self._parked),
            "store_keys": self._store_keys(),
            "dep_log": self._dep_log_stats(),
            "links": links,
            "inbound": inbound,
            "flight": {
                "capacity": self.flight.capacity,
                "recorded": self.flight.recorded,
                "dropped": self.flight.dropped,
                "held": len(self.flight),
            },
            "wire": {"version": wire.WIRE_VERSION},
            "origin_applied": {
                str(int(s)): int(v)
                for s, v in sorted(self._origin_applied.items())
            },
            "own_log": len(self._own_log),
            "stale_parked": sum(self._stale_parked.values()),
        }
        if self.wal is not None:
            snap["durability"] = {
                "incarnation": int(self.wal.incarnation),
                "fsync": self.wal.fsync_mode,
                "records_appended": self.wal.records_appended,
                "bytes_appended": self.wal.bytes_appended,
                "raw_appends": self.wal.raw_appends,
                "fsyncs": self.wal.fsyncs,
                "snapshots": self.wal.snapshots,
            }
        if self.metrics is not None:
            snap["metrics"] = self.metrics.snapshot()
        return snap

    def refresh_gauges(self) -> None:
        """Recompute the scrape-time gauges from live structures: link
        replication lag (enqueued−acked and acked−applied), parked
        depth, dependency-log size, store size.  Runs before every
        stats reply and as the Prometheus responder's per-scrape
        refresh — gauges are views, so the request hot paths never pay
        for them."""
        m = self.metrics
        if m is None:
            return
        for dest in sorted(self._links):
            stats = self._links[dest].stats()
            m.gauge("link_unacked_count", site=self.site, peer=dest).set(
                stats["unacked"]
            )
            m.gauge("link_unapplied_count", site=self.site, peer=dest).set(
                stats["acked"] - stats["applied"]
            )
        m.gauge("parked_updates_count", site=self.site).set(len(self._parked))
        m.gauge("own_log_entries_count", site=self.site).set(len(self._own_log))
        if self.wal is not None:
            m.gauge("wal_records_count", site=self.site).set(
                self.wal.records_appended
            )
            m.gauge("wal_appended_bytes", site=self.site).set(
                self.wal.bytes_appended
            )
        dep = self._dep_log_stats()
        m.gauge("dep_log_entries_count", site=self.site).set(dep["entries"])
        m.gauge("dep_log_bytes", site=self.site).set(dep["bytes"])
        m.gauge("store_keys_count", site=self.site).set(self._store_keys())

    def _store_keys(self) -> int:
        # every protocol stores its local replicas in the base class's
        # ``_values`` map; sibling-package access beats adding a public
        # len API to the protocol ABC for one gauge
        values = getattr(self.protocol, "_values", None)
        return len(values) if values is not None else 0

    def _dep_log_stats(self) -> Dict[str, int]:
        """Dependency-log size in entries and wire bytes (the binary
        encoding of its full metadata — what a fresh connection's first
        frame would pay).  Zero for protocols without an explicit
        DepLog (Full-Track's matrix clock, Opt-Track-CRP's scalars)."""
        log = getattr(self.protocol, "log", None)
        if not isinstance(log, DepLog) or len(log) == 0:
            return {"entries": 0, "bytes": 0}
        encoded = wire.BINARY_CODEC.encode(
            wire.make_frame("sys.stats.ok", p=wire.encode_meta(log))
        )
        return {"entries": len(log), "bytes": len(encoded)}

    def _visibility(self, origin: SiteId) -> Any:
        hist = self._vis_hist.get(origin)
        if hist is None:
            hist = self._vis_hist[origin] = self.metrics.histogram(
                "visibility_latency_ms", site=self.site, origin=origin
            )
        return hist

    def flight_dump(self, reason: str) -> Optional[str]:
        """Dump the flight ring as a post-mortem JSONL artifact named
        after this site and the trigger.  A no-op unless ``flight_dir``
        is configured; dump failures are swallowed — a post-mortem must
        never turn a dying handler's error into a different one."""
        if self.flight_dir is None:
            return None
        path = os.path.join(
            self.flight_dir, f"site-{int(self.site)}-{reason}.jsonl"
        )
        try:
            return self.flight.dump(path, reason)
        except OSError:
            return None

    # ------------------------------------------------------------------
    # apply machinery (single-writer: everything below is synchronous)
    # ------------------------------------------------------------------
    def _apply(self, msg: UpdateMessage, replay: bool = False) -> None:
        now = 0.0 if replay else self.now_ms()
        if not replay and self.sanitizer is not None:
            self.sanitizer.before_apply(self.protocol, msg, now=now)
            self.protocol.apply_update(msg)
            self.sanitizer.after_apply(self.protocol, msg, now=now)
        else:
            # replay bypasses the sanitizer entirely: these transitions
            # were checked when they happened live, and the sanitizer's
            # cross-site state still remembers them
            self.protocol.apply_update(msg)
        self.applies += 1
        wid = msg.write_id
        if wid.seq > self._origin_applied.get(wid.site, 0):
            # the per-origin stable timestamp: gaps below it are writes
            # this site does not replicate (writes destined here apply
            # in origin order, so the max is also the destined-here
            # contiguous floor) — the unit gossip digests and snapshot
            # coverage are denominated in
            self._origin_applied[wid.site] = wid.seq
        park = self._park_of.pop(wid, None)
        if park is not None:
            # a formerly parked update applied: the applied watermark
            # for its sender may advance past its link sequence now
            src, link_seq = park
            if link_seq == 0:
                # a stale park from a dead incarnation of its sender
                # (see _handle_hello): release the GC clamp with it
                n = self._stale_parked.get(src, 0) - 1
                if n > 0:
                    self._stale_parked[src] = n
                else:
                    self._stale_parked.pop(src, None)
            else:
                parked = self._parked_ls.get(src)
                if parked is not None:
                    parked.discard(link_seq)
                    if not parked:
                        del self._parked_ls[src]
        if replay:
            return
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.on_apply(
                now,
                self.site,
                msg.var,
                msg.write_id,
                self._recv_at.pop(msg.write_id, now),
            )
        issued = self._issue_ms.pop(msg.write_id, None)
        if issued is not None and self.metrics is not None:
            # issue→local-apply, as stamped by the origin and read at the
            # stamp's own resolution (clamped: the two clocks share an
            # origin on co-hosted clusters but may skew across hosts)
            self._visibility(msg.write_id.site).observe(
                max(0.0, wire.issue_age_ms(issued, now))
            )
        self.metric("service_applies_total")

    def _drain(self, replay: bool = False) -> None:
        """Re-evaluate parked updates to a fixpoint, then wake waiters."""
        progressed = True
        while progressed:
            progressed = False
            for i, msg in enumerate(self._parked):
                if self.protocol.can_apply(msg):
                    del self._parked[i]
                    self._apply(msg, replay)
                    progressed = True
                    break
        if not replay:
            self._notify_progress()

    def _notify_progress(self) -> None:
        # waking waiters needs the condition lock, i.e. a task — skip
        # the task creation entirely on the hot path when nobody waits
        if self._waiting == 0:
            return

        async def _notify() -> None:
            async with self._progress:
                self._progress.notify_all()

        asyncio.ensure_future(_notify())

    async def _wait_for(self, predicate) -> bool:
        """Await ``predicate()`` becoming true on apply progress, bounded
        by ``read_timeout``.  False on expiry (the caller degrades to a
        retriable error — the service never holds a request forever)."""
        if predicate():
            return True
        self._waiting += 1
        try:
            async with self._progress:
                try:
                    await asyncio.wait_for(
                        self._progress.wait_for(predicate), self.read_timeout
                    )
                    return True
                except asyncio.TimeoutError:
                    return False
        finally:
            self._waiting -= 1

    def _link(self, dest: SiteId) -> PeerLink:
        if self.stopped:
            # a stopped site must never enqueue traffic on a link with
            # no sender task behind it — the frame would sit there while
            # the caller believes it is on its way
            raise ServiceUnavailableError(f"site {self.site} is stopped")
        link = self._links.get(dest)
        if link is None:
            link = PeerLink(self, dest, self.addresses[dest])
            link.start()
            self._links[dest] = link
        return link


__all__ = [
    "SiteServer",
    "PeerLink",
    "MAX_STALE_FETCH_RETRIES",
    "LINK_HANDSHAKE_TIMEOUT",
]

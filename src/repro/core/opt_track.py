"""Algorithm Opt-Track (paper Algorithms 2 and 3).

Message- and space-optimal causal consistency under **partial
replication**.  Instead of Full-Track's ``n x n`` matrix, each site keeps a
Kshemkalyani–Singhal-style log of ``<sender, clock, Dests>`` records —
one per causally preceding write whose destination information is still
relevant — pruned by the two KS optimality conditions (see
:mod:`repro.core.log`).

State at site ``s_i``:

* ``clock_i`` — local write counter (inherited ``_wseq``);
* ``Apply[1..n]`` — ``Apply[z]`` is the clock value of the most recent
  update from ``ap_z`` applied locally (line 27).  Deviation from the
  paper's line 16 (which increments): we set ``Apply[i] := clock_i`` on
  *every* local write, including writes to variables not locally
  replicated.  With the literal ``Apply[i]++`` the counter diverges from
  ``clock_i`` whenever a site writes a variable it does not replicate, and
  a later dependency ``<i, c>`` arriving from a third site would deadlock.
  Algorithm 4 (Opt-Track-CRP, line 5) uses the assignment form, confirming
  the intent.
* ``LOG`` — the dependency log;
* ``LastWriteOn{var -> log}`` — the piggybacked log of the most recent
  update applied to each locally replicated variable; merged into ``LOG``
  only when a read returns that variable (the delayed, ``~>co``-faithful
  merge).

Activation predicate (lines 24-25): for every piggybacked record
``<z, c, Dests>`` with ``s_i ∈ Dests``, wait until ``c <= Apply[z]``.
Records not listing ``s_i`` are transitively guaranteed and need no wait.

``distributed_prune=True`` enables the paper's Section III-B variant that
moves the per-destination pruning of lines 3-8 to the receivers: one shared
log snapshot is piggybacked (write cost drops from O(n^2 p) to O(n^2)) at
the expense of slightly larger messages.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core import bitsets
from repro.core.base import CausalProtocol, ProtocolConfig, register_protocol
from repro.core.log import DepLog
from repro.core.messages import (
    FetchReply,
    FetchRequest,
    OptTrackMeta,
    UpdateMessage,
    WriteResult,
)
from repro.errors import ProtocolInvariantError
from repro.types import SiteId, VarId, WriteId


@register_protocol
class OptTrackProtocol(CausalProtocol):
    """Partial-replication causal memory with KS-optimal dependency logs."""

    name = "opt-track"
    full_replication_only = False

    def __init__(
        self, config: ProtocolConfig, *, distributed_prune: bool = False
    ) -> None:
        super().__init__(config)
        self.apply_clocks: List[int] = [0] * config.n
        self.log = DepLog()
        self.last_write_on: Dict[VarId, DepLog] = {}
        self.distributed_prune = distributed_prune
        #: per local variable: {sender: max clock} over the knowledge of
        #: every write stored to it here — the causal ceiling used to
        #: reject regressions (see _dominated)
        self._ceiling: Dict[VarId, Dict[int, int]] = {}
        #: ``known_applies[d][z]`` — proven lower bound on ``Apply_d[z]``,
        #: fed by the service layer's applied-watermark acks (direct for
        #: our own writes, transitive via the piggybacked log of each
        #: acked update — see note_remote_apply_log).  Lazily allocated:
        #: stays ``None`` (zero cost) until the first ack arrives, i.e.
        #: in simulation runs and on v3 links, which never send applied
        #: watermarks.
        self.known_applies: Optional[List[List[int]]] = None

    @property
    def clock(self) -> int:
        """The paper's ``clock_i`` (== the per-site write counter)."""
        return self._wseq

    # ------------------------------------------------------------------
    # WRITE(x_h, v) — Alg. 2 lines 1-17
    # ------------------------------------------------------------------
    def write(self, var: VarId, value: Any) -> WriteResult:
        reps = self.replicas(var)
        reps_mask = self.replica_mask(var)
        write_id = self._next_write_id()  # line 1: clock_i++
        clock = self._wseq

        # Condition-2 prune mask.  Deviation from the paper: the writer's
        # own site is excluded.  Condition 2's transitivity argument
        # assumes the covering update reaches the pruned destination
        # through the activation predicate, but the writer applies its own
        # update instantly — pruning "writer ∈ o.Dests" would erase the
        # only record that the writer still owes itself update ``o``,
        # letting a later local read return a value the writer has
        # causally overseen via a remote read (see can_read_local and
        # DESIGN.md §2a, completion 3a).  The retained bit
        # clears through Condition 1 once the update actually applies at
        # the writer; receivers' activation checks are unaffected.
        prune_mask = bitsets.remove(reps_mask, self.site)

        # Ack-driven Condition 1 ahead of the copies: clear every
        # destination bit the known-applies table proves satisfied, so
        # neither the piggybacked copies nor the retained log carry it.
        # Runs unconditionally when the table exists — READ's merge
        # (absorb) can resurrect already-pruned bits from stored logs.
        if self.known_applies is not None:
            self.log.prune_known(self.known_applies)

        messages: list[UpdateMessage] = []
        if self.distributed_prune:
            # Variant (Section III-B closing remark): one shared snapshot,
            # receivers prune.  The snapshot must be taken before the local
            # pruning of lines 10-11.
            shared = self.log.copy()
            meta = OptTrackMeta(clock, reps_mask, shared)
            messages = [
                UpdateMessage(var, value, write_id, self.site, dest, meta)
                for dest in reps
                if dest != self.site
            ]
        else:
            # lines 2-9: per-destination pruned copies, built in one pass
            # over the log (the destination-independent part is shared)
            remote = [dest for dest in reps if dest != self.site]
            for dest, l_w in self.log.multicast_copies(remote, prune_mask):
                meta = OptTrackMeta(clock, reps_mask, l_w)
                messages.append(
                    UpdateMessage(var, value, write_id, self.site, dest, meta)
                )

        # lines 10-12: Condition 2 at the sender — the new update will
        # transitively carry every logged dependency to the replicas of
        # x_h — fused with the PURGE sweep
        obs = self.obs
        # the prune diff is an *explanation* argument: skip the pre-image
        # snapshot for recorders that declared ``needs_reasons`` off
        # (e.g. the always-on flight ring)
        pre = (
            dict(self.log.entries)
            if obs is not None and obs.enabled and obs.needs_reasons
            else None
        )
        self.log.retire(prune_mask)
        if pre is not None:
            self._obs_prune("condition2", var, pre, self.log)
        # line 13: the new write joins the log
        self.log.add(self.site, clock, bitsets.remove(reps_mask, self.site))
        # deviation from line 16 (see module docstring): own writes are
        # always in the local causal past, replicated here or not
        self.apply_clocks[self.site] = clock

        applied = False
        if self.site in reps:  # lines 14-17
            self._store_value(var, value, write_id)
            self.last_write_on[var] = self.log.copy()
            self._raise_ceiling(var, self.log)
            applied = True
        return WriteResult(write_id, messages, applied)

    # ------------------------------------------------------------------
    # READ(x_h) — Alg. 2 lines 18-23
    # ------------------------------------------------------------------
    def read_local(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        lw = self.last_write_on.get(var)
        if lw is not None:
            self.log.absorb(lw)  # lines 21-22 (merge + purge fused)
        return self.local_value(var)

    def can_read_local(self, var: VarId) -> bool:
        # Safe once every log record naming this site as a destination has
        # been applied.  Records that pruned this site are transitively
        # covered by ones that retain it (the KS invariant), exactly as in
        # the server-side fetch wait.
        me = bitsets.singleton(self.site)
        ac = self.apply_clocks
        return all(ac[z] >= c for (z, c), d in self.log if d & me)

    def make_fetch_request(self, var: VarId, server: SiteId) -> FetchRequest:
        # Records naming the server: the server must have applied these
        # before its copy of `var` is causally safe for us to read.
        # (Records not naming the server are transitively covered by ones
        # that do — the KS invariant.)
        bit = bitsets.singleton(server)
        deps = tuple(sorted(key for key, d in self.log.entries.items() if d & bit))
        return FetchRequest(var, self.site, server, self.next_fetch_id(), deps)

    def can_serve_fetch(self, req: FetchRequest) -> bool:
        if req.deps is None:
            return True
        ac = self.apply_clocks
        return all(ac[z] >= c for (z, c) in req.deps)

    def serve_fetch(self, req: FetchRequest) -> FetchReply:
        value, write_id = self.local_value(req.var)
        meta = self.last_write_on.get(req.var)
        if meta is not None and self.known_applies is not None:
            # Refresh the stored log against applies proven since it was
            # frozen at apply/write time (Condition 1 via the ack-driven
            # table) — stored logs are otherwise never re-pruned, and
            # they dominate fetch-reply bytes on read-heavy workloads.
            meta.prune_known(self.known_applies)
        applied = tuple(self.apply_clocks)
        return FetchReply(
            req.var,
            value,
            write_id,
            self.site,
            req.requester,
            req.fetch_id,
            meta,
            applied,
        )

    def complete_remote_read(
        self, reply: FetchReply
    ) -> Tuple[Any, Optional[WriteId]]:
        if reply.meta is not None:
            self.log.absorb(reply.meta)  # lines 20 + 22 (merge + purge fused)
        return reply.value, reply.write_id

    def reply_is_fresh(self, reply: FetchReply) -> bool:
        # Mirror of the server-side fetch wait, evaluated client-side
        # against the server's serve-time apply snapshot: every log record
        # naming the server must have been applied there before its copy of
        # the variable covers our causal past.  (Records that pruned the
        # server are transitively covered by ones retaining it — the KS
        # invariant, as in make_fetch_request.)
        applied = reply.applied
        if applied is None:
            return True
        bit = bitsets.singleton(reply.server)
        return all(
            applied[z] >= c for (z, c), d in self.log.entries.items() if d & bit
        )

    def stale_deps(self, reply: FetchReply) -> Tuple[Tuple[int, int], ...]:
        applied = reply.applied
        bit = bitsets.singleton(reply.server)
        return tuple(
            sorted(
                (z, c)
                for (z, c), d in self.log.entries.items()
                if d & bit and applied[z] < c
            )
        )

    # ------------------------------------------------------------------
    # update path — Alg. 2 lines 24-31
    # ------------------------------------------------------------------
    def can_apply(self, msg: UpdateMessage) -> bool:
        meta: OptTrackMeta = msg.meta
        me = bitsets.singleton(self.site)
        ac = self.apply_clocks
        for (z, c), dests in meta.log:
            if dests & me and ac[z] < c:
                return False
        return True

    def blocking_deps(self, msg: UpdateMessage) -> Tuple[Tuple[int, int], ...]:
        # The activation predicate (lines 24-25) is exactly a conjunction of
        # per-record waits, so the blocking set is directly indexable.
        meta: OptTrackMeta = msg.meta
        me = bitsets.singleton(self.site)
        ac = self.apply_clocks
        return tuple(
            (z, c) for (z, c), dests in meta.log if dests & me and ac[z] < c
        )

    def blocking_fetch_deps(self, req: FetchRequest) -> Tuple[Tuple[int, int], ...]:
        if req.deps is None:
            return ()
        ac = self.apply_clocks
        return tuple((z, c) for (z, c) in req.deps if ac[z] < c)

    def blocking_read_deps(self, var: VarId) -> Tuple[Tuple[int, int], ...]:
        me = bitsets.singleton(self.site)
        ac = self.apply_clocks
        return tuple((z, c) for (z, c), d in self.log if d & me and ac[z] < c)

    def apply_progress(self, z: SiteId) -> int:
        return self.apply_clocks[z]

    def apply_update(self, msg: UpdateMessage) -> None:
        if not self.can_apply(msg):
            raise ProtocolInvariantError(
                f"site {self.site}: update {msg} applied before activation"
            )
        meta: OptTrackMeta = msg.meta
        if self.apply_clocks[msg.sender] >= meta.clock:
            raise ProtocolInvariantError(
                f"site {self.site}: non-monotonic apply from {msg.sender}: "
                f"{meta.clock} after {self.apply_clocks[msg.sender]}"
            )
        self.apply_clocks[msg.sender] = meta.clock  # line 27
        if self._dominated(msg):
            # Same completion as Full-Track: the stored value causally
            # follows this update (it raced a remote-read-informed local
            # write); applying it would regress the replica.  Count it as
            # applied, keep the newer value and log.
            return
        _, cur_wid = self._values.get(msg.var, (None, None))
        if (
            cur_wid is not None
            and meta.log.latest_clock(cur_wid.site) < cur_wid.seq
            and not (msg.sender == cur_wid.site and meta.clock > cur_wid.seq)
        ):
            # the stored write is unknown to the incoming one: concurrent
            # conflict, resolved by overwrite
            self.conflicts_detected += 1
        self._store_value(msg.var, msg.value, msg.write_id)  # line 26

        stored = meta.log.copy()
        obs = self.obs
        if self.distributed_prune:
            # receiver-side Condition-2 pruning (sender skipped lines 3-8);
            # the sender's own bit is excluded, as in the sender-side prune
            pre = (
                dict(stored.entries)
                if obs is not None and obs.enabled and obs.needs_reasons
                else None
            )
            stored.prune_dests(bitsets.remove(meta.replicas_mask, msg.sender))
            if pre is not None:
                self._obs_prune("condition2-receiver", msg.var, pre, stored)
        # line 28: the update itself joins the stored log
        stored.add(msg.sender, meta.clock, meta.replicas_mask)
        # lines 29-30: Condition 1 — this site has now applied everything
        # the stored log mentions as destined to it
        pre = (
            dict(stored.entries)
            if obs is not None and obs.enabled and obs.needs_reasons
            else None
        )
        stored.remove_site(self.site)
        if pre is not None:
            self._obs_prune("condition1", msg.var, pre, stored)
        self.last_write_on[msg.var] = stored  # line 31
        self._raise_ceiling(msg.var, stored)

    def _obs_prune(self, condition: str, var: VarId, pre, log: DepLog) -> None:
        """Report one prune sweep to the attached lifecycle recorder as a
        ``pre``-vs-``log.entries`` diff: destination bits lost per sender,
        records dropped outright, and empty-``Dests`` records retained as
        their sender's newest (the PURGE retention rule, paper Fig. 2)."""
        removed = 0
        kept = 0
        by_sender: Dict[int, int] = {}
        post = log.entries
        for key, d_pre in pre.items():
            d_post = post.get(key)
            if d_post is None:
                removed += 1
                lost = d_pre
            else:
                lost = d_pre & ~d_post
                if d_post == bitsets.EMPTY:
                    kept += 1
            if lost:
                z = key[0]
                by_sender[z] = by_sender.get(z, 0) + lost.bit_count()
        if removed or by_sender:
            self.obs.on_prune(self.site, condition, var, removed, by_sender, kept)

    def _raise_ceiling(self, var: VarId, log: DepLog) -> None:
        ceiling = self._ceiling.setdefault(var, {})
        for z, c in log.latest_by_sender.items():
            if c > ceiling.get(z, 0):
                ceiling[z] = c

    def _dominated(self, msg: UpdateMessage) -> bool:
        """True when the incoming update is in the causal past of *some*
        write previously stored to the variable at this site.

        Each stored write's log keeps the newest record per sender its
        writer ever learned of (PURGE and the per-destination copies both
        retain the latest record even when its destination set empties),
        so the per-variable ceiling — the per-sender maximum over the
        stored writes' logs — satisfies ``ceiling[sender] >= clock``
        exactly when some stored write knew of this update, i.e. the
        update causally precedes it.  Testing only the *current* value is
        not enough: chains of pairwise-concurrent overwrites can forget
        knowledge an earlier stored write had.  A skipped update is never
        causally newer than the current value: if it were, the current
        value would itself have been skipped when it was stored.
        """
        ceiling = self._ceiling.get(msg.var)
        if ceiling is None:
            return False
        meta: OptTrackMeta = msg.meta
        return ceiling.get(msg.sender, 0) >= meta.clock

    # ------------------------------------------------------------------
    # service-layer GC seam
    # ------------------------------------------------------------------
    def note_remote_apply(self, site: SiteId, upto_clock: int) -> None:
        """Ack-driven Condition-1 prune: the peer link to ``site`` acked
        (applied) our writes up to ``upto_clock``, so records
        ``<self, c <= upto_clock>`` no longer need to name ``site`` as a
        destination.  Bounds the own-write slice of ``LOG`` by the
        in-flight link window — without this the writer only forgets a
        destination once the knowledge round-trips through a piggybacked
        log (Condition 1 via MERGE), which on a quiet link never happens.
        """
        if upto_clock <= 0 or site == self.site:
            return
        row = self._known()[site]
        if upto_clock > row[self.site]:
            row[self.site] = upto_clock
        self.log.prune_sender_upto(
            self.site, upto_clock, bitsets.singleton(site)
        )

    def note_remote_apply_log(self, site: SiteId, meta: Any) -> None:
        """Transitive ack-driven knowledge: ``site`` acked *applying* an
        update whose piggybacked metadata is ``meta``.  The activation
        predicate guarantees it had then applied every record in the
        piggybacked log naming it as a destination, and per-sender
        applies are FIFO (apply_update enforces monotonicity), so each
        such record ``<z, c>`` raises the proven bound
        ``known_applies[site][z]`` to at least ``c``.  This is what lets
        the ack-driven GC clear *third-party* destination bits, not just
        the acking link's own-write slice — knowledge that otherwise
        only round-trips through a future piggybacked log merge.
        """
        if site == self.site:
            return
        log: DepLog = meta.log
        row = self._known()[site]
        bit = bitsets.singleton(site)
        for (z, c), dests in log.entries.items():
            if dests & bit and c > row[z]:
                row[z] = c

    def _known(self) -> List[List[int]]:
        known = self.known_applies
        if known is None:
            n = self.config.n
            known = self.known_applies = [[0] * n for _ in range(n)]
        return known

    # ------------------------------------------------------------------
    # durability hooks (see CausalProtocol.state_snapshot for the
    # plain-data encoding contract)
    # ------------------------------------------------------------------
    @staticmethod
    def _log_flat(log: DepLog) -> list:
        # flat sorted (sender, clock, dests_mask) triples — canonical and
        # cheap for the wire codec's int-list fast path
        return [
            x
            for (s, c), d in sorted(log.entries.items())
            for x in (s, c, d)
        ]

    @staticmethod
    def _log_unflat(flat: list) -> DepLog:
        it = iter(flat)
        return DepLog(
            {(int(s), int(c)): int(d) for s, c, d in zip(it, it, it)}
        )

    def state_snapshot(self) -> Dict[str, Any]:
        snap = super().state_snapshot()
        snap["ac"] = list(self.apply_clocks)
        snap["log"] = self._log_flat(self.log)
        snap["lw"] = {
            var: self._log_flat(lw) for var, lw in self.last_write_on.items()
        }
        snap["ceil"] = {
            var: [x for z, c in sorted(ceil.items()) for x in (z, c)]
            for var, ceil in self._ceiling.items()
        }
        snap["known"] = (
            [c for row in self.known_applies for c in row]
            if self.known_applies is not None
            else None
        )
        return snap

    def state_restore(self, snap: Mapping[str, Any]) -> None:
        super().state_restore(snap)
        self.apply_clocks = [int(c) for c in snap["ac"]]
        self.log = self._log_unflat(snap["log"])
        self.last_write_on = {
            var: self._log_unflat(flat) for var, flat in snap["lw"].items()
        }
        self._ceiling = {}
        for var, flat in snap["ceil"].items():
            it = iter(flat)
            self._ceiling[var] = {int(z): int(c) for z, c in zip(it, it)}
        known = snap["known"]
        n = self.n
        self.known_applies = (
            [[int(c) for c in known[d * n : (d + 1) * n]] for d in range(n)]
            if known is not None
            else None
        )

    # ------------------------------------------------------------------
    def meta_objects(self) -> Iterable[Any]:
        yield self.log
        # Apply and the known-applies table are priced per entry
        yield array("q", self.apply_clocks)
        yield from self.last_write_on.values()
        yield from self._ceiling.values()
        if self.known_applies is not None:
            yield array("q", (c for row in self.known_applies for c in row))

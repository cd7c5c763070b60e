"""Algorithm Full-Track (paper Algorithm 1).

Causal consistency under **partial replication** with the optimal
activation predicate ``A_OPT``.  Each site ``s_i`` maintains:

* ``Write[1..n, 1..n]`` — matrix clock: ``Write[j, k]`` = number of updates
  sent by process ``ap_j`` to site ``s_k`` that causally happened before
  under the ``~>co`` relation;
* ``Apply[1..n]`` — ``Apply[j]`` = number of updates written by ``ap_j``
  that have been applied at this site;
* ``LastWriteOn{var -> Write-clock}`` — the clock piggybacked by the most
  recent write applied to each locally replicated variable.

The piggybacked clock is **not** merged at message receipt; the merge is
deferred to the read that returns the message's value (lines 10 and 12) —
this is what makes the tracked relation ``~>co`` rather than Lamport's
happened-before, eliminating false causality.

Activation predicate (line 14): an update ``m(x, v, W)`` from ``s_j`` is
applied once ``∀k≠j: Apply[k] >= W[k, i]`` and ``Apply[j] = W[j, i] - 1``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.base import CausalProtocol, ProtocolConfig, register_protocol
from repro.core.clocks import MatrixClock
from repro.core.messages import FetchReply, FetchRequest, UpdateMessage, WriteResult
from repro.errors import ProtocolInvariantError
from repro.types import SiteId, VarId, WriteId


@register_protocol
class FullTrackProtocol(CausalProtocol):
    """Partial-replication causal memory with n x n matrix clocks."""

    name = "full-track"
    full_replication_only = False

    def __init__(self, config: ProtocolConfig) -> None:
        super().__init__(config)
        self.write_clock = MatrixClock(config.n)
        self.apply_counts = np.zeros(config.n, dtype=np.int64)
        self.last_write_on: Dict[VarId, MatrixClock] = {}
        #: per local variable: the join, over every write stored to it
        #: here, of the writer's knowledge column "writes destined to this
        #: site" — the causal ceiling used to reject regressions (see
        #: _dominated)
        self._ceiling: Dict[VarId, np.ndarray] = {}
        #: per variable: its replica set as an index ndarray, so the
        #: matrix-clock increment on every write skips the list build
        self._rep_idx: Dict[VarId, np.ndarray] = {}

    # ------------------------------------------------------------------
    # WRITE(x_h, v) — Alg. 1 lines 1-7
    # ------------------------------------------------------------------
    def write(self, var: VarId, value: Any) -> WriteResult:
        reps = self.replicas(var)
        # lines 1-2: count this write toward every replica of x_h
        idx = self._rep_idx.get(var)
        if idx is None:
            idx = self._rep_idx[var] = np.fromiter(reps, dtype=np.intp)
        self.write_clock.increment(self.site, idx)
        write_id = self._next_write_id()
        # line 3: multicast m(x_h, v, Write_i) to the remote replicas.  The
        # same frozen snapshot is piggybacked on every copy (the metrics
        # layer still charges its size once per message, as the paper does).
        snapshot = self.write_clock.frozen_copy()
        messages = [
            UpdateMessage(var, value, write_id, self.site, dest, snapshot)
            for dest in reps
            if dest != self.site
        ]
        applied = False
        if self.site in reps:  # lines 4-7
            self._store_value(var, value, write_id)
            self.apply_counts[self.site] += 1
            self.last_write_on[var] = snapshot
            self._raise_ceiling(var, snapshot)
            applied = True
        return WriteResult(write_id, messages, applied)

    # ------------------------------------------------------------------
    # READ(x_h) — Alg. 1 lines 8-13
    # ------------------------------------------------------------------
    def read_local(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        # line 12: merge the clock of the last write applied to x_h — this
        # deferred merge is the ~>co (read-from) dependency.
        clock = self.last_write_on.get(var)
        if clock is not None:
            self.write_clock.merge(clock)
        return self.local_value(var)

    def can_read_local(self, var: VarId) -> bool:
        # Safe once every causal-past write destined to this site has been
        # applied: Apply[k] >= Write[k, i] for all k (column i is exactly
        # the per-writer counts of updates owed to this site).
        return bool(np.all(self.apply_counts >= self.write_clock.m[:, self.site]))

    def make_fetch_request(self, var: VarId, server: SiteId) -> FetchRequest:
        # Only column `server` of the matrix matters to the server:
        # Write[k, server] = writes by k destined to the server in our
        # causal past.  O(n) on the request instead of O(n^2).
        deps = self.write_clock.column(server)
        deps.setflags(write=False)
        return FetchRequest(var, self.site, server, self.next_fetch_id(), deps)

    def can_serve_fetch(self, req: FetchRequest) -> bool:
        if req.deps is None:
            return True
        return bool(np.all(self.apply_counts >= req.deps))

    def serve_fetch(self, req: FetchRequest) -> FetchReply:
        value, write_id = self.local_value(req.var)
        meta = self.last_write_on.get(req.var)
        applied = self.apply_counts.copy()
        applied.setflags(write=False)
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
        # lines 9-10: merge the fetched LastWriteOn clock
        if reply.meta is not None:
            self.write_clock.merge(reply.meta)
        return reply.value, reply.write_id

    def reply_is_fresh(self, reply: FetchReply) -> bool:
        # Mirror of the server-side fetch wait, evaluated client-side:
        # column `server` of our matrix counts the causal-past writes
        # destined to the server; the server's serve-time apply snapshot
        # must cover all of them or its copy may predate our causal past.
        if reply.applied is None:
            return True
        return bool(np.all(reply.applied >= self.write_clock.m[:, reply.server]))

    def stale_deps(self, reply: FetchReply) -> np.ndarray:
        # the failed slots of column `server`, zero elsewhere: the same
        # vector shape can_serve_fetch compares against Apply
        col = self.write_clock.m[:, reply.server]
        return np.where(np.asarray(reply.applied) < col, col, 0)

    # ------------------------------------------------------------------
    # update path — Alg. 1 lines 14-17
    # ------------------------------------------------------------------
    def can_apply(self, msg: UpdateMessage) -> bool:
        w: MatrixClock = msg.meta
        i, j = self.site, msg.sender
        col = w.m[:, i]
        if self.apply_counts[j] != col[j] - 1:
            return False
        # ∀k≠j: Apply[k] >= W[k, i].  Slot j itself always falls short by
        # exactly 1 here, so the predicate is "one shortfall total" —
        # avoids allocating a per-call boolean index mask.
        return int(np.count_nonzero(self.apply_counts < col)) == 1

    def blocking_deps(self, msg: UpdateMessage) -> Tuple[Tuple[int, float], ...]:
        w: MatrixClock = msg.meta
        i, j = self.site, msg.sender
        col = w.m[:, i]
        ac = self.apply_counts
        if ac[j] > col[j] - 1:
            # Overshoot on the sender's own slot: the equality term
            # ``Apply[j] = W[j,i] - 1`` can never become true again (apply
            # counts are monotone).  Unreachable under FIFO channels, but
            # park the message on an unsatisfiable dependency rather than
            # spin — matching the rescan, which re-tests forever.
            return ((j, float("inf")),)
        deps = [
            (int(k), int(col[k])) for k in np.nonzero(ac < col)[0] if k != j
        ]
        if ac[j] < col[j] - 1:
            deps.append((j, int(col[j]) - 1))
        return tuple(deps)

    def blocking_fetch_deps(self, req: FetchRequest) -> Tuple[Tuple[int, int], ...]:
        if req.deps is None:
            return ()
        ac = self.apply_counts
        return tuple(
            (int(k), int(req.deps[k])) for k in np.nonzero(ac < req.deps)[0]
        )

    def blocking_read_deps(self, var: VarId) -> Tuple[Tuple[int, int], ...]:
        col = self.write_clock.m[:, self.site]
        ac = self.apply_counts
        return tuple((int(k), int(col[k])) for k in np.nonzero(ac < col)[0])

    def apply_progress(self, z: SiteId) -> int:
        return int(self.apply_counts[z])

    def apply_update(self, msg: UpdateMessage) -> None:
        if not self.can_apply(msg):
            raise ProtocolInvariantError(
                f"site {self.site}: update {msg} applied before activation"
            )
        self.apply_counts[msg.sender] += 1
        if self._dominated(msg):
            # A write already stored to this variable here causally
            # follows this update (it raced a remote-read-informed local
            # write, possibly through a chain of concurrent overwrites).
            # Writing it would regress the replica to a causally
            # overwritten value — a consistency violation the checker
            # catches.  Count it as applied; keep the current value and
            # metadata.  See DESIGN.md, "completions".
            return
        cur = self.last_write_on.get(msg.var)
        if cur is not None and not bool(np.all(cur.m <= msg.meta.m)):
            # the stored write is not in the incoming write's causal past
            # either: a genuine concurrent conflict, resolved by overwrite
            self.conflicts_detected += 1
        self._store_value(msg.var, msg.value, msg.write_id)
        self.last_write_on[msg.var] = msg.meta
        self._raise_ceiling(msg.var, msg.meta)

    def placement_changed(self, var: VarId) -> None:
        super().placement_changed(var)
        # the cached replica index array feeds the matrix-clock increment;
        # left stale it would count new writes toward the old replica set
        # while the transport already delivers to the new one
        self._rep_idx.pop(var, None)

    def _raise_ceiling(self, var: VarId, clock: MatrixClock) -> None:
        col = clock.m[:, self.site]
        cur = self._ceiling.get(var)
        if cur is None:
            self._ceiling[var] = col.copy()
        else:
            np.maximum(cur, col, out=cur)

    def _dominated(self, msg: UpdateMessage) -> bool:
        """True when the incoming update is in the causal past of *some*
        write previously stored to the variable at this site.

        Testing against the current value alone is not enough: a chain of
        pairwise-concurrent overwrites can make the current value's clock
        forget knowledge an earlier stored write had.  The per-variable
        ceiling is the join of every stored write's knowledge of "writes
        destined to this site", so ``W_m[j, i] <= ceiling[j]`` holds
        exactly when some stored write knew of this update (the update
        counts itself in ``W_m[j, i]``, so concurrent writes never
        dominate it).  A skipped update is never causally newer than the
        current value: if it were, the current value would itself have
        been skipped when it was stored.
        """
        ceiling = self._ceiling.get(msg.var)
        if ceiling is None:
            return False
        w: MatrixClock = msg.meta
        return bool(w.m[msg.sender, self.site] <= ceiling[msg.sender])

    # ------------------------------------------------------------------
    # durability hooks (plain-data contract: CausalProtocol.state_snapshot)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        snap = super().state_snapshot()
        snap["wc"] = [int(x) for x in self.write_clock.m.ravel()]
        snap["ac"] = [int(x) for x in self.apply_counts]
        snap["lw"] = {
            var: [int(x) for x in clock.m.ravel()]
            for var, clock in self.last_write_on.items()
        }
        snap["ceil"] = {
            var: [int(x) for x in col] for var, col in self._ceiling.items()
        }
        return snap

    def state_restore(self, snap) -> None:
        super().state_restore(snap)
        n = self.n
        self.write_clock = MatrixClock(
            n, np.array(snap["wc"], dtype=np.int64).reshape(n, n)
        )
        self.apply_counts = np.array(snap["ac"], dtype=np.int64)
        self.last_write_on = {
            var: MatrixClock(
                n, np.array(flat, dtype=np.int64).reshape(n, n)
            )
            for var, flat in snap["lw"].items()
        }
        self._ceiling = {
            var: np.array(col, dtype=np.int64)
            for var, col in snap["ceil"].items()
        }
        # _rep_idx is a pure cache over the placement map; write() rebuilds
        # it lazily

    # ------------------------------------------------------------------
    def meta_objects(self) -> Iterable[Any]:
        yield self.write_clock
        yield self.apply_counts
        yield from self.last_write_on.values()
        yield from self._ceiling.values()

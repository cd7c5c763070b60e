"""Baseline: OptP (Baldoni, Milani, Piergiovanni 2006).

The optimal complete-replication-and-propagation protocol the paper
compares Opt-Track-CRP against.  It uses the same optimal activation
predicate ``A_OPT`` (it introduced it), tracking the ``~>co`` relation with
an ``n``-entry ``Write`` vector clock whose piggybacked copy is merged at
*read* time, not receipt time.

Under full replication Full-Track's matrix degenerates to this vector
(every column is identical), which is exactly how we realize OptP.  Its
Table-I costs — ``nw`` messages, O(n^2 w) total message size, O(n) write
and read, O(nq) space — match the paper's row for OptP: the protocol keeps
a full vector per variable in ``LastWriteOn`` and piggybacks a full vector
on every update, with none of the KS log-pruning machinery.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.core.base import CausalProtocol, ProtocolConfig, register_protocol
from repro.core.clocks import VectorClock
from repro.core.messages import UpdateMessage, WriteResult
from repro.errors import ProtocolInvariantError
from repro.types import VarId, WriteId


@register_protocol
class OptPProtocol(CausalProtocol):
    """Baldoni et al.'s optimal full-replication protocol (vector clocks,
    read-time merge)."""

    name = "optp"
    full_replication_only = True

    def __init__(self, config: ProtocolConfig) -> None:
        super().__init__(config)
        self.write_clock = VectorClock(config.n)
        self.apply_counts = VectorClock(config.n)
        self.last_write_on: Dict[VarId, VectorClock] = {}

    # ------------------------------------------------------------------
    def write(self, var: VarId, value: Any) -> WriteResult:
        self.write_clock.increment(self.site)
        write_id = self._next_write_id()
        snapshot = self.write_clock.frozen_copy()
        messages = [
            UpdateMessage(var, value, write_id, self.site, dest, snapshot)
            for dest in range(self.n)
            if dest != self.site
        ]
        self._store_value(var, value, write_id)
        self.apply_counts.increment(self.site)
        self.last_write_on[var] = snapshot
        return WriteResult(write_id, messages, True)

    def read_local(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        clock = self.last_write_on.get(var)
        if clock is not None:
            self.write_clock.merge(clock)  # deferred (~>co) merge
        return self.local_value(var)

    # ------------------------------------------------------------------
    def can_apply(self, msg: UpdateMessage) -> bool:
        return self.apply_counts.admits(msg.meta, msg.sender)

    def blocking_deps(self, msg: UpdateMessage) -> Tuple[Tuple[int, float], ...]:
        w: VectorClock = msg.meta
        j = msg.sender
        ac = self.apply_counts
        need = w[j] - 1  # updates from j that must be applied before this one
        have = ac[j]
        if have > need:
            # unreachable under FIFO channels; see FullTrack.blocking_deps
            return ((j, float("inf")),)
        deps: list[Tuple[int, float]] = [
            (k, w[k]) for k in ac.short_slots(w) if k != j
        ]
        if have < need:
            deps.append((j, need))
        return tuple(deps)

    def apply_progress(self, z: int) -> int:
        return self.apply_counts[z]

    def apply_update(self, msg: UpdateMessage) -> None:
        if not self.can_apply(msg):
            raise ProtocolInvariantError(
                f"site {self.site}: update {msg} applied before activation"
            )
        cur = self.last_write_on.get(msg.var)
        if cur is not None and not (cur <= msg.meta):
            # stored write unknown to the incoming one: concurrent
            # conflict, resolved by overwrite
            self.conflicts_detected += 1
        self._store_value(msg.var, msg.value, msg.write_id)
        self.apply_counts.increment(msg.sender)
        self.last_write_on[msg.var] = msg.meta

    # ------------------------------------------------------------------
    # durability hooks (plain-data contract: CausalProtocol.state_snapshot)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        snap = super().state_snapshot()
        snap["wc"] = list(self.write_clock.v)
        snap["ac"] = list(self.apply_counts.v)
        snap["lw"] = {
            var: list(clock.v) for var, clock in self.last_write_on.items()
        }
        return snap

    def state_restore(self, snap: Mapping[str, Any]) -> None:
        super().state_restore(snap)
        n = self.n
        self.write_clock = VectorClock(n, snap["wc"])
        self.apply_counts = VectorClock(n, snap["ac"])
        self.last_write_on = {
            var: VectorClock(n, flat) for var, flat in snap["lw"].items()
        }

    # ------------------------------------------------------------------
    def meta_objects(self) -> Iterable[Any]:
        yield self.write_clock
        # Apply is priced per entry, as the array it is in the paper
        yield array("q", self.apply_counts.v)
        yield from self.last_write_on.values()

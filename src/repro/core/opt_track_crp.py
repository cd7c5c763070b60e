"""Algorithm Opt-Track-CRP (paper Algorithm 4).

Opt-Track systematically specialized to **full replication** (Complete
Replication and Propagation).  Under full replication every write goes to
the same destination set (everybody), so destination lists are redundant
and every log record collapses to the 2-tuple ``<sender, clock>`` — O(1)
instead of O(n) per record.

Two further structural consequences (paper Fig. 3):

* after a write, the local log resets to just that write — all previously
  logged dependencies share the new write's destination set, so Condition 2
  prunes them wholesale (line 3);
* after applying an update, only the update itself needs to be remembered
  in ``LastWriteOn`` (line 13).

The log therefore holds at most ``d + 1`` records, ``d`` = number of local
read operations since the last local write, giving the Table-I complexities
O(n) write, O(1) read, O(nwd) total message size and O(max(n, q)) space —
strictly better than Baldoni et al.'s OptP on every metric.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.base import CausalProtocol, ProtocolConfig, register_protocol
from repro.core.messages import CrpMeta, UpdateMessage, WriteResult
from repro.errors import ProtocolInvariantError
from repro.types import VarId, WriteId


@register_protocol
class OptTrackCrpProtocol(CausalProtocol):
    """Full-replication causal memory with 2-tuple dependency logs."""

    name = "opt-track-crp"
    full_replication_only = True

    def __init__(self, config: ProtocolConfig) -> None:
        super().__init__(config)
        self.apply_clocks: List[int] = [0] * config.n
        #: the paper's LOG_i, as {sender: clock} (one record per sender —
        #: MERGE keeps only the newest record per sender, line 14-16)
        self.log: Dict[int, int] = {}
        #: LastWriteOn: var -> the single record <j, clock_j> of the most
        #: recent applied write (line 6 / line 13)
        self.last_write_on: Dict[VarId, Tuple[int, int]] = {}

    @property
    def clock(self) -> int:
        return self._wseq

    # ------------------------------------------------------------------
    # WRITE(x_h, v) — Alg. 4 lines 1-6
    # ------------------------------------------------------------------
    def write(self, var: VarId, value: Any) -> WriteResult:
        write_id = self._next_write_id()  # line 1: clock_i++
        clock = self._wseq
        # line 2: piggyback the pre-reset log; the write itself travels in
        # the message header as (sender, clock)
        meta = CrpMeta(clock, dict(self.log))
        messages = [
            UpdateMessage(var, value, write_id, self.site, dest, meta)
            for dest in range(self.n)
            if dest != self.site
        ]
        self.log = {self.site: clock}  # line 3: the log resets (Fig. 3)
        self._store_value(var, value, write_id)  # line 4
        self.apply_clocks[self.site] = clock  # line 5
        self.last_write_on[var] = (self.site, clock)  # line 6
        return WriteResult(write_id, messages, True)

    # ------------------------------------------------------------------
    # READ(x_h) — Alg. 4 lines 7-8 and MERGE lines 14-16
    # ------------------------------------------------------------------
    def read_local(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        rec = self.last_write_on.get(var)
        if rec is not None:
            sender, clock = rec
            if self.log.get(sender, 0) < clock:
                self.log[sender] = clock
        return self.local_value(var)

    # ------------------------------------------------------------------
    # update path — Alg. 4 lines 9-13
    # ------------------------------------------------------------------
    def can_apply(self, msg: UpdateMessage) -> bool:
        meta: CrpMeta = msg.meta
        # lines 9-10: every piggybacked record must already be applied
        ac = self.apply_clocks
        return all(ac[z] >= c for z, c in meta.log.items())

    def blocking_deps(self, msg: UpdateMessage) -> Tuple[Tuple[int, int], ...]:
        meta: CrpMeta = msg.meta
        ac = self.apply_clocks
        return tuple((z, c) for z, c in meta.log.items() if ac[z] < c)

    def apply_progress(self, z: int) -> int:
        return self.apply_clocks[z]

    def apply_update(self, msg: UpdateMessage) -> None:
        if not self.can_apply(msg):
            raise ProtocolInvariantError(
                f"site {self.site}: update {msg} applied before activation"
            )
        meta: CrpMeta = msg.meta
        if self.apply_clocks[msg.sender] >= meta.clock:
            raise ProtocolInvariantError(
                f"site {self.site}: non-monotonic apply from {msg.sender}: "
                f"{meta.clock} after {self.apply_clocks[msg.sender]}"
            )
        # Note: no conflict detection here.  The CRP log resets on every
        # write (Fig. 3), so the piggybacked records under-approximate the
        # writer's knowledge and cannot decide concurrency; protocols with
        # a full causal summary per value (Full-Track, Opt-Track, OptP)
        # maintain `conflicts_detected`.
        self._store_value(msg.var, msg.value, msg.write_id)  # line 11
        self.apply_clocks[msg.sender] = meta.clock  # line 12
        self.last_write_on[msg.var] = (msg.sender, meta.clock)  # line 13

    # ------------------------------------------------------------------
    # durability hooks (plain-data contract: CausalProtocol.state_snapshot)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        snap = super().state_snapshot()
        snap["ac"] = list(self.apply_clocks)
        snap["log"] = [x for z, c in sorted(self.log.items()) for x in (z, c)]
        snap["lw"] = {
            var: [int(s), int(c)] for var, (s, c) in self.last_write_on.items()
        }
        return snap

    def state_restore(self, snap: Mapping[str, Any]) -> None:
        super().state_restore(snap)
        self.apply_clocks = [int(c) for c in snap["ac"]]
        it = iter(snap["log"])
        self.log = {int(z): int(c) for z, c in zip(it, it)}
        self.last_write_on = {
            var: (int(s), int(c)) for var, (s, c) in snap["lw"].items()
        }

    # ------------------------------------------------------------------
    def meta_objects(self) -> Iterable[Any]:
        yield self.log
        yield array("q", self.apply_clocks)  # Apply: priced per entry
        yield from self.last_write_on.values()

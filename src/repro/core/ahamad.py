"""Baseline: the original causal memory protocol (Ahamad et al. 1995).

Full replication, vector clocks, and the **non-optimal** activation
predicate ``A_ORG`` based on Lamport's happened-before relation: the
piggybacked clock is merged into the local clock at *apply* time, so a
site's subsequent writes appear to depend on every update it has applied —
whether or not the application ever read those values.  This is *false
causality* (Section II-C): two writes that are concurrent under ``~>co``
can be ordered under happened-before, forcing receivers to buffer updates
longer than necessary.

The ablation benchmark (EXPERIMENTS.md E8) measures exactly this: with
identical workloads and identical message schedules, ``A_ORG`` activation
delays dominate ``A_OPT`` ones.
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
class AhamadProtocol(CausalProtocol):
    """Original causal memory: happened-before tracking (``A_ORG``)."""

    name = "ahamad"
    full_replication_only = True

    def __init__(self, config: ProtocolConfig) -> None:
        super().__init__(config)
        self.vector_clock = VectorClock(config.n)
        self.apply_counts = VectorClock(config.n)

    # ------------------------------------------------------------------
    def write(self, var: VarId, value: Any) -> WriteResult:
        self.vector_clock.increment(self.site)
        write_id = self._next_write_id()
        snapshot = self.vector_clock.frozen_copy()
        messages = [
            UpdateMessage(var, value, write_id, self.site, dest, snapshot)
            for dest in range(self.n)
            if dest != self.site
        ]
        self._store_value(var, value, write_id)
        self.apply_counts.increment(self.site)
        return WriteResult(write_id, messages, True)

    def read_local(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        # No merge here: under happened-before tracking the dependency was
        # already created when the update was applied.
        return self.local_value(var)

    # ------------------------------------------------------------------
    def can_apply(self, msg: UpdateMessage) -> bool:
        return self.apply_counts.admits(msg.meta, msg.sender)

    def apply_update(self, msg: UpdateMessage) -> None:
        if not self.can_apply(msg):
            raise ProtocolInvariantError(
                f"site {self.site}: update {msg} applied before activation"
            )
        self._store_value(msg.var, msg.value, msg.write_id)
        self.apply_counts.increment(msg.sender)
        # The happened-before merge: this is what manufactures false
        # causality relative to ~>co.
        self.vector_clock.merge(msg.meta)

    # ------------------------------------------------------------------
    # durability hooks (plain-data contract: CausalProtocol.state_snapshot)
    # ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, Any]:
        snap = super().state_snapshot()
        snap["vc"] = list(self.vector_clock.v)
        snap["ac"] = list(self.apply_counts.v)
        return snap

    def state_restore(self, snap: Mapping[str, Any]) -> None:
        super().state_restore(snap)
        self.vector_clock = VectorClock(self.n, snap["vc"])
        self.apply_counts = VectorClock(self.n, snap["ac"])

    # ------------------------------------------------------------------
    def meta_objects(self) -> Iterable[Any]:
        yield self.vector_clock
        yield array("q", self.apply_counts.v)

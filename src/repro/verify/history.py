"""Execution history recording.

The paper's correctness condition is stated over the *global history* ``H``
(Section II-A): the union of each application process's local history,
related by program order (``po``), read-from order (``ro``) and their
transitive closure, the causality order (``co``).

:class:`History` records exactly what is needed to reconstruct those
relations after a run:

* every completed operation, per site, in program order (``OpRecord``);
* every apply event, with arrival and apply times (``ApplyRecord``);
* the read-from resolution, via the :class:`repro.types.WriteId` carried by
  every value.

Insertion order is also kept: the simulator emits records in simulated-time
order, so insertion order is a linearization of real time and therefore a
topological order of ``co`` — which lets the checker compute causal
frontiers in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolInvariantError
from repro.types import ApplyRecord, OpKind, OpRecord, SiteId, VarId, WriteId


@dataclass
class History:
    """The recorded global history of one run."""

    n_sites: int
    #: per-site local histories, in program order
    local: List[List[OpRecord]] = field(default_factory=list)
    #: all operations, in insertion (simulated-time) order
    records: List[OpRecord] = field(default_factory=list)
    #: apply events, in insertion order
    applies: List[ApplyRecord] = field(default_factory=list)
    #: write id -> the OpRecord of the write
    writes_by_id: Dict[WriteId, OpRecord] = field(default_factory=dict)
    #: write id -> replica set the write was actually multicast to (at
    #: write time — placements can be reconfigured between epochs)
    write_destinations: Dict[WriteId, Tuple[SiteId, ...]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.local:
            self.local = [[] for _ in range(self.n_sites)]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_write(
        self,
        site: SiteId,
        var: VarId,
        value: object,
        write_id: WriteId,
        time: float,
        destinations: Optional[Tuple[SiteId, ...]] = None,
    ) -> OpRecord:
        rec = OpRecord(
            site=site,
            index=len(self.local[site]),
            kind=OpKind.WRITE,
            var=var,
            value=value,
            write_id=write_id,
            time=time,
        )
        self.local[site].append(rec)
        self.records.append(rec)
        if write_id in self.writes_by_id:
            raise ProtocolInvariantError(f"duplicate write id {write_id}")
        self.writes_by_id[write_id] = rec
        if destinations is not None:
            self.write_destinations[write_id] = tuple(destinations)
        return rec

    def record_read(
        self,
        site: SiteId,
        var: VarId,
        value: object,
        write_id: Optional[WriteId],
        time: float,
    ) -> OpRecord:
        rec = OpRecord(
            site=site,
            index=len(self.local[site]),
            kind=OpKind.READ,
            var=var,
            value=value,
            write_id=write_id,
            time=time,
        )
        self.local[site].append(rec)
        self.records.append(rec)
        return rec

    def record_apply(
        self,
        site: SiteId,
        write_id: WriteId,
        var: VarId,
        time: float,
        received_time: float,
    ) -> ApplyRecord:
        rec = ApplyRecord(
            site=site,
            write_id=write_id,
            var=var,
            time=time,
            received_time=received_time,
        )
        self.applies.append(rec)
        return rec

    # ------------------------------------------------------------------
    # seam subscriber (repro.core.observe): issue, apply and read
    # ------------------------------------------------------------------
    def on_issue(
        self,
        t: float,
        site: SiteId,
        var: VarId,
        write_id: WriteId,
        dests: Tuple[SiteId, ...],
        value: object,
        local: bool,
    ) -> None:
        self.record_write(site, var, value, write_id, t, destinations=dests)

    def on_apply(
        self, t: float, site: SiteId, var: VarId, write_id: WriteId, recv_time: float
    ) -> None:
        self.record_apply(site, write_id, var, t, recv_time)

    def on_read(
        self,
        t: float,
        site: SiteId,
        var: VarId,
        write_id: Optional[WriteId],
        value: object,
    ) -> None:
        self.record_read(site, var, value, write_id, t)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_ops(self) -> int:
        return len(self.records)

    @property
    def writes(self) -> List[OpRecord]:
        return [r for r in self.records if r.is_write]

    @property
    def reads(self) -> List[OpRecord]:
        return [r for r in self.records if r.is_read]

    def applies_at(self, site: SiteId) -> List[ApplyRecord]:
        return [a for a in self.applies if a.site == site]

    def op(self, site: SiteId, index: int) -> OpRecord:
        return self.local[site][index]

    def write_of(self, write_id: WriteId) -> OpRecord:
        return self.writes_by_id[write_id]

    def activation_delays(self) -> List[float]:
        """Apply-time minus arrival-time for every applied update (0 for
        the writer's own local apply)."""
        return [a.time - a.received_time for a in self.applies]

"""Byte-accounting model for control metadata ("message size" in Table I).

The paper's message-size metric counts **control information only** — the
clocks/logs piggybacked on update messages — not the replicated data itself
(Section V: for multimedia workloads the data dwarfs the control data; the
protocols compete on control overhead).  This module prices every metadata
object the protocols produce:

===========================  =============================================
object                       bytes
===========================  =============================================
matrix clock (Full-Track)    ``n^2 * clock_bytes``
vector clock (OptP/Ahamad)   ``n * clock_bytes``
Opt-Track log                per record: ``id_bytes + clock_bytes``
                             plus ``id_bytes`` per listed destination
CRP log                      per record: ``id_bytes + clock_bytes``
message header               ``header_bytes`` (routing, var id, write id)
===========================  =============================================

The defaults (4-byte site ids, 8-byte clocks, 24-byte headers) are the
conventional choices; every constant is configurable so sensitivity
analyses can reprice.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import DepLog
from repro.core.messages import (
    CrpMeta,
    FetchReply,
    FetchRequest,
    OptTrackMeta,
    UpdateMessage,
)


@dataclass(frozen=True)
class SizeModel:
    """Prices protocol metadata in bytes."""

    id_bytes: int = 4
    clock_bytes: int = 8
    header_bytes: int = 24
    #: size charged for the application value payload; 0 by default so that
    #: measured message sizes are pure control overhead, as in the paper
    value_bytes: int = 0

    # ------------------------------------------------------------------
    # per-type pricing rules (dispatched by exact type; see meta_size)
    # ------------------------------------------------------------------
    def _size_clock(self, meta: Any) -> int:
        return meta.size_bytes(self.clock_bytes)

    def _size_deplog(self, meta: DepLog) -> int:
        return meta.size_bytes(self.id_bytes, self.clock_bytes)

    def _size_opt_track(self, meta: OptTrackMeta) -> int:
        # clock + replica set + log
        return (
            self.clock_bytes
            + meta.replicas_mask.bit_count() * self.id_bytes
            + meta.log.size_bytes(self.id_bytes, self.clock_bytes)
        )

    def _size_crp(self, meta: CrpMeta) -> int:
        return self.clock_bytes + len(meta.log) * (
            self.id_bytes + self.clock_bytes
        )

    def _size_pairs(self, meta: Any) -> int:
        # CRP local log {sender: clock}, LastWriteOn {var: record}, or a
        # collection of (sender, clock)-priced records
        return len(meta) * (self.id_bytes + self.clock_bytes)

    def _size_pair_tuple(self, meta: tuple) -> int:
        if len(meta) != 2:
            raise TypeError(f"don't know how to size {len(meta)}-tuple {meta!r}")
        # CRP LastWriteOn record <sender, clock>
        return self.id_bytes + self.clock_bytes

    def _size_ndarray(self, meta: np.ndarray) -> int:
        # Full-Track Apply arrays / strict-fetch dependency columns
        return int(meta.size) * self.clock_bytes

    def _size_int_array(self, meta: array) -> int:
        # Apply arrays and known-applies tables of the protocols that keep
        # them as Python ints: one clock per entry (a ``list`` is priced
        # as (id, clock) records, so they are yielded as ``array("q")``)
        return len(meta) * self.clock_bytes

    #: exact-type dispatch for meta_size — one dict lookup per metadata
    #: object instead of an isinstance chain (this runs for every message
    #: priced and every space probe).  Subtypes are resolved through the
    #: chain once, then memoized under their exact type.
    _META_SIZERS = {
        MatrixClock: _size_clock,
        VectorClock: _size_clock,
        DepLog: _size_deplog,
        OptTrackMeta: _size_opt_track,
        CrpMeta: _size_crp,
        dict: _size_pairs,
        tuple: _size_pair_tuple,
        np.ndarray: _size_ndarray,
        array: _size_int_array,
        list: _size_pairs,
        frozenset: _size_pairs,
        set: _size_pairs,
    }

    # ------------------------------------------------------------------
    def meta_size(self, meta: Any) -> int:
        """Size of one piggybacked/stored metadata object."""
        if meta is None:
            return 0
        sizer = self._META_SIZERS.get(type(meta))
        if sizer is None:
            for base, fn in list(self._META_SIZERS.items()):
                if isinstance(meta, base):
                    # memoize the subtype so the next lookup is exact
                    self._META_SIZERS[type(meta)] = fn
                    sizer = fn
                    break
            else:
                raise TypeError(f"don't know how to size {type(meta).__name__}")
        return sizer(self, meta)

    # ------------------------------------------------------------------
    def _size_update(self, msg: UpdateMessage) -> int:
        return self.header_bytes + self.value_bytes + self.meta_size(msg.meta)

    def _size_batch(self, msg: Any) -> int:  # msg: repro.sim.batching.UpdateBatch
        # one transport header; every update still pays its control
        # metadata (plus a small per-update subheader) — batching
        # saves headers and message count, never metadata
        per_update_header = 8
        return self.header_bytes + sum(
            per_update_header + self.value_bytes + self.meta_size(u.meta)
            for u in msg.updates
        )

    def _size_fetch_request(self, msg: FetchRequest) -> int:
        deps = 0
        if msg.deps is not None:
            if isinstance(msg.deps, np.ndarray):
                deps = int(msg.deps.size) * self.clock_bytes
            else:  # tuple of (sender, clock) pairs
                deps = len(msg.deps) * (self.id_bytes + self.clock_bytes)
        return self.header_bytes + deps

    def _size_fetch_reply(self, msg: FetchReply) -> int:
        return self.header_bytes + self.value_bytes + self.meta_size(msg.meta)

    #: exact-type dispatch for message_size, same scheme as _META_SIZERS.
    #: UpdateBatch is registered lazily on first miss — repro.sim imports
    #: the metrics package, so naming it here would be a circular import.
    _MESSAGE_SIZERS = {
        UpdateMessage: _size_update,
        FetchRequest: _size_fetch_request,
        FetchReply: _size_fetch_reply,
    }

    def message_size(self, msg: Any) -> int:
        """Total size of one on-the-wire message (header + control data).

        Called once per message sent, dispatched on the message's exact
        type; ``DepLog.size_bytes`` underneath is memoized, so repricing
        the same shared log snapshot across a multicast's copies costs
        one dict walk total.
        """
        sizer = self._MESSAGE_SIZERS.get(type(msg))
        if sizer is None:
            sizer = self._resolve_message_sizer(msg)
        return sizer(self, msg)

    def _resolve_message_sizer(self, msg: Any):
        from repro.sim.batching import UpdateBatch

        table = self._MESSAGE_SIZERS
        table.setdefault(UpdateBatch, SizeModel._size_batch)
        for base, fn in list(table.items()):
            if isinstance(msg, base):
                table[type(msg)] = fn  # memoize: next lookup is exact
                return fn
        raise TypeError(f"don't know how to size {type(msg).__name__}")


DEFAULT_SIZE_MODEL = SizeModel()

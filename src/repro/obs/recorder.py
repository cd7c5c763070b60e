"""Per-update lifecycle recorders (the write side of ``repro.obs``).

The simulation layer is instrumented with a handful of *recorder hooks*
covering the full life of an update message::

    issue ─ send[dest] ─ enqueue ─ deliver ─ (buffered) ─ apply
                          │ hold / drop                │ wake / prune

plus ``read`` returns (needed so a recorded trace can re-drive the causal
oracle, see :mod:`repro.obs.replay`), wake-index wakeups and dependency-log
prune events.  Every hook call produces one flat JSON-ready *record* (a
plain dict with compact keys — the schema table lives in
docs/observability.md); the :mod:`repro.obs.spans` builder folds the flat
stream back into ``WriteId``-keyed span trees.

Tracing is **off by default and zero-cost when off**: the simulation layer
holds ``recorder = None`` and guards every hook behind ``if rec is not
None and rec.enabled`` — the same discipline as the pre-existing
``Tracer``.  Two recorder implementations exist:

* :class:`TraceRecorder` — collects records in memory, optionally flushing
  them to a JSONL file on :meth:`~TraceRecorder.close` (atomic
  write-then-rename, like the result cache);
* :class:`NullRecorder` — the no-op: every hook is a ``pass``.  It exists
  so that *attached-but-disabled* instrumentation (a recorder subclass
  with everything switched off) has a measured cost ceiling: the hot-path
  bench drives a full reference run against it and fails if the no-op
  recorder adds more than 0.1 % to the run's calls (see
  ``repro.analysis.hotpaths.bench_trace_overhead``).

Recorders timestamp protocol-side events (prunes) themselves via a bound
simulation clock — protocols are pure state machines and do not know the
time (see :attr:`repro.core.base.CausalProtocol.obs`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.types import SiteId, VarId, WriteId

#: JSONL schema version (bump on incompatible record changes)
TRACE_VERSION = 1

#: record kinds, in rough lifecycle order
KINDS = (
    "header",
    "issue",
    "send",
    "enqueue",
    "hold",
    "drop",
    "deliver",
    "buffered",
    "wake",
    "apply",
    "read",
    "prune",
)


def encode_write_id(write_id: Optional[WriteId]) -> Optional[List[int]]:
    return None if write_id is None else [write_id.site, write_id.seq]


def decode_write_id(value: Any) -> Optional[WriteId]:
    return None if value is None else WriteId(int(value[0]), int(value[1]))


class NullRecorder:
    """The no-op recorder: full hook surface, zero behaviour.

    ``enabled`` is the instrumentation gate: every hook site guards with
    ``if rec is not None and rec.enabled``, so an *attached* null
    recorder costs one attribute test per site — no method call, no
    argument packing (the cost ceiling the hot-path bench enforces).
    ``needs_reasons`` tells instrumentation sites whether it is worth
    *computing* expensive hook arguments (e.g. snapshotting a dependency
    log before a prune just to report what the prune removed) — the null
    recorder declines them.
    """

    enabled = False
    needs_reasons = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def on_issue(self, t, site, var, write_id, dests) -> None:
        pass

    def on_send(self, t, src, dest, write_id) -> None:
        pass

    def on_enqueue(self, t, src, dest, write_id, arrival) -> None:
        pass

    def on_hold(self, t, src, dest, write_id) -> None:
        pass

    def on_drop(self, t, src, dest, write_id) -> None:
        pass

    def on_deliver(self, t, site, write_id) -> None:
        pass

    def on_buffered(self, t, site, write_id, blocking) -> None:
        pass

    def on_wake(self, t, site, origin, progress, ready, reparked) -> None:
        pass

    def on_apply(self, t, site, var, write_id, recv_time) -> None:
        pass

    def on_read(self, t, site, var, write_id) -> None:
        pass

    def on_prune(self, site, condition, var, removed, by_sender, kept) -> None:
        pass

    def close(self) -> None:
        pass


class TraceRecorder(NullRecorder):
    """Collects lifecycle records in memory; optional JSONL sink.

    Records are stored already in their canonical JSON shape (lists, not
    tuples; string dict keys), so a loaded trace compares equal to the
    live recorder record-for-record — the round-trip property the tests
    pin down.

    ``path`` enables the durable sink: :meth:`close` writes one JSON
    object per line (a ``header`` record first) to a temp file and renames
    it into place, so readers never observe a torn trace.  ``close`` is
    idempotent; :class:`repro.sim.cluster.Cluster` calls it at the end of
    every workload run (interactive/session users call
    ``cluster.close_trace()``).
    """

    enabled = True
    needs_reasons = True

    def __init__(
        self,
        path: Optional[str] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.path = str(path) if path is not None else None
        self.meta: Dict[str, Any] = dict(meta or {})
        self.records: List[Dict[str, Any]] = []
        self._clock: Callable[[], float] = lambda: 0.0
        self._closed = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulation clock used to stamp protocol-side events."""
        self._clock = clock

    # ------------------------------------------------------------------
    # hooks (sim layer)
    # ------------------------------------------------------------------
    def on_issue(
        self,
        t: float,
        site: SiteId,
        var: VarId,
        write_id: WriteId,
        dests: Iterable[SiteId],
    ) -> None:
        self.records.append(
            {
                "k": "issue",
                "t": t,
                "s": site,
                "v": var,
                "w": encode_write_id(write_id),
                "d": [int(d) for d in dests],
            }
        )

    def on_send(self, t: float, src: SiteId, dest: SiteId, write_id: WriteId) -> None:
        self.records.append(
            {"k": "send", "t": t, "s": src, "d": dest, "w": encode_write_id(write_id)}
        )

    def on_enqueue(
        self, t: float, src: SiteId, dest: SiteId, write_id: WriteId, arrival: float
    ) -> None:
        self.records.append(
            {
                "k": "enqueue",
                "t": t,
                "s": src,
                "d": dest,
                "w": encode_write_id(write_id),
                "a": arrival,
            }
        )

    def on_hold(self, t: float, src: SiteId, dest: SiteId, write_id: WriteId) -> None:
        self.records.append(
            {"k": "hold", "t": t, "s": src, "d": dest, "w": encode_write_id(write_id)}
        )

    def on_drop(self, t: float, src: SiteId, dest: SiteId, write_id: WriteId) -> None:
        self.records.append(
            {"k": "drop", "t": t, "s": src, "d": dest, "w": encode_write_id(write_id)}
        )

    def on_deliver(self, t: float, site: SiteId, write_id: WriteId) -> None:
        self.records.append(
            {"k": "deliver", "t": t, "s": site, "w": encode_write_id(write_id)}
        )

    def on_buffered(
        self,
        t: float,
        site: SiteId,
        write_id: WriteId,
        blocking: Iterable[Tuple[SiteId, int]],
    ) -> None:
        """The update's activation predicate was false on arrival.

        ``blocking`` names the unsatisfied ``(origin, clock)`` dependencies
        from the protocol's ``blocking_deps`` hook — empty when the
        protocol cannot explain its predicate (unindexable protocols)."""
        self.records.append(
            {
                "k": "buffered",
                "t": t,
                "s": site,
                "w": encode_write_id(write_id),
                "b": [[int(z), int(c)] for z, c in blocking],
            }
        )

    def on_wake(
        self,
        t: float,
        site: SiteId,
        origin: SiteId,
        progress: int,
        ready: Iterable[WriteId],
        reparked: Iterable[WriteId],
    ) -> None:
        """A wake-index wakeup: apply progress for ``origin`` reached
        ``progress``; the watchers parked on it were re-evaluated.
        Diagnostics of the drain's bookkeeping, not of the execution —
        span folding does not depend on them."""
        self.records.append(
            {
                "k": "wake",
                "t": t,
                "s": site,
                "o": origin,
                "p": int(progress),
                "w": [encode_write_id(w) for w in ready],
                "r": [encode_write_id(w) for w in reparked],
            }
        )

    def on_apply(
        self, t: float, site: SiteId, var: VarId, write_id: WriteId, recv_time: float
    ) -> None:
        """``t - recv_time`` is the activation (buffering) delay — the one
        definition shared with ``MetricsCollector.on_apply``."""
        self.records.append(
            {
                "k": "apply",
                "t": t,
                "s": site,
                "v": var,
                "w": encode_write_id(write_id),
                "rt": recv_time,
            }
        )

    def on_read(
        self, t: float, site: SiteId, var: VarId, write_id: Optional[WriteId]
    ) -> None:
        self.records.append(
            {"k": "read", "t": t, "s": site, "v": var, "w": encode_write_id(write_id)}
        )

    # ------------------------------------------------------------------
    # hooks (protocol side — self-timestamped via the bound clock)
    # ------------------------------------------------------------------
    def on_prune(
        self,
        site: SiteId,
        condition: str,
        var: VarId,
        removed: int,
        by_sender: Mapping[int, int],
        kept: int,
    ) -> None:
        """A dependency-log prune: ``condition`` is ``"condition1"``
        (applied records dropped at apply time, Alg. 2 lines 29-30),
        ``"condition2"`` (records retired at the sender on write, lines
        10-12) or ``"condition2-receiver"`` (the distributed-prune
        variant).  ``kept`` counts empty-``Dests`` records *retained* as
        each sender's newest (the PURGE retention rule)."""
        self.records.append(
            {
                "k": "prune",
                "t": self._clock(),
                "s": site,
                "c": condition,
                "v": var,
                "n": int(removed),
                "z": {str(z): int(n) for z, n in sorted(by_sender.items())},
                "kept": int(kept),
            }
        )

    # ------------------------------------------------------------------
    def header(self) -> Dict[str, Any]:
        head: Dict[str, Any] = {"k": "header", "version": TRACE_VERSION}
        head.update(self.meta)
        return head

    def span_tree(self):
        """The records folded into ``WriteId``-keyed spans."""
        from repro.obs.spans import build_spans

        return build_spans(self.records)

    def close(self) -> Optional[str]:
        """Flush to the JSONL sink (if any); idempotent.  Returns the
        sink path when a file was written."""
        if self._closed or self.path is None:
            self._closed = True
            return None
        import json
        import os

        tmp = f"{self.path}.{os.getpid()}.tmp"
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, self.path)  # atomic: readers never see a torn trace
        self._closed = True
        return self.path

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sink = f" -> {self.path}" if self.path else ""
        return f"<TraceRecorder {len(self.records)} records{sink}>"


#: anything the sim layer accepts where a recorder is expected
Recorder = Union[NullRecorder, TraceRecorder]

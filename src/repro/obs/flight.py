"""The flight recorder: a bounded ring of recent lifecycle records.

A black box for the service layer: every :class:`SiteServer` keeps a
:class:`FlightRecorder` attached **always** — not just when the user
asked for a trace — so that when something goes wrong (a
``SanitizerViolation``, an unhandled handler-task exception, a chaos
kill) the last moments of that site can be dumped as a post-mortem.
Three properties make "always on" affordable:

* **bounded memory** — records land in a ``collections.deque`` with a
  ``maxlen``; old history falls off the back, so a long-lived server
  never grows its ring;
* **cheap records** — hooks append small tuples, not the canonical dict
  records of :class:`~repro.obs.recorder.TraceRecorder` (dict literals
  with string keys are the dominant cost of full tracing).  The
  canonical shape is materialised only at :meth:`FlightRecorder.dump`
  time, when the process is already in trouble;
* **no reasons** — ``needs_reasons`` is ``False``, so the protocols
  skip the pre-prune log snapshots that explain a ``prune`` event.

The ring cost is enforced: ``repro.analysis.hotpaths`` drives the
reference workload against an attached flight recorder and fails the
bench when the overhead exceeds its budget (the same rail that bounds
the no-op recorder).

:meth:`FlightRecorder.dump` writes a **TRACE_VERSION-compatible JSONL**
artifact (header line first, atomic temp-write + rename — exactly the
:meth:`TraceRecorder.close` contract), so every existing consumer —
``repro-sim trace report``, :func:`repro.obs.jsonl.load_trace`, the
span builder and timeline — renders a flight dump unchanged.  The
header carries a ``flight`` section naming the dump reason and how much
history the ring held.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.recorder import TRACE_VERSION, encode_write_id

#: default ring capacity (records, not spans); at the reference
#: workload's ~4 records per replicated apply this holds the last few
#: hundred applies per site — the "seconds before the crash"
DEFAULT_FLIGHT_CAPACITY = 2048


class FlightRecorder:
    """Always-on bounded recorder; see module docstring.

    The hook surface matches :class:`TraceRecorder` record for record —
    :meth:`records` materialises the ring into the exact canonical dict
    shapes, so ``build_spans`` and the timeline consume them directly.
    """

    enabled = True
    #: never ask instrumentation sites to compute explanation arguments
    needs_reasons = False

    def __init__(
        self,
        capacity: int = DEFAULT_FLIGHT_CAPACITY,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"flight ring capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self.meta: Dict[str, Any] = dict(meta or {})
        self._ring: Deque[Tuple[Any, ...]] = deque(maxlen=self.capacity)
        self._clock: Callable[[], float] = lambda: 0.0
        #: total records ever recorded; ``recorded - len(ring)`` is how
        #: much history has aged off the back
        self.recorded = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def close(self) -> None:
        """Nothing to flush: the ring reaches disk only via :meth:`dump`."""

    # ------------------------------------------------------------------
    # seam subscriber: one tuple append per event (the always-on hot path)
    # ------------------------------------------------------------------
    def on_issue(self, t, site, var, write_id, dests, *_) -> None:
        self.recorded += 1
        self._ring.append(("issue", t, site, var, write_id, list(dests)))

    def on_send(self, t, src, dest, write_id, *_) -> None:
        self.recorded += 1
        self._ring.append(("send", t, src, dest, write_id))

    def on_enqueue(self, t, src, dest, write_id, arrival) -> None:
        self.recorded += 1
        self._ring.append(("enqueue", t, src, dest, write_id, arrival))

    def on_hold(self, t, src, dest, write_id) -> None:
        self.recorded += 1
        self._ring.append(("hold", t, src, dest, write_id))

    def on_drop(self, t, src, dest, write_id) -> None:
        self.recorded += 1
        self._ring.append(("drop", t, src, dest, write_id))

    def on_deliver(self, t, site, write_id) -> None:
        self.recorded += 1
        self._ring.append(("deliver", t, site, write_id))

    def on_buffered(self, t, site, write_id, blocking) -> None:
        self.recorded += 1
        self._ring.append(("buffered", t, site, write_id, list(blocking)))

    def on_wake(self, t, site, origin, progress, ready, reparked) -> None:
        self.recorded += 1
        self._ring.append(
            ("wake", t, site, origin, progress, list(ready), list(reparked))
        )

    def on_apply(self, t, site, var, write_id, recv_time) -> None:
        self.recorded += 1
        self._ring.append(("apply", t, site, var, write_id, recv_time))

    def on_read(self, t, site, var, write_id, *_) -> None:
        self.recorded += 1
        self._ring.append(("read", t, site, var, write_id))

    def on_prune(self, site, condition, var, removed, by_sender, kept) -> None:
        self.recorded += 1
        self._ring.append(
            ("prune", self._clock(), site, condition, var, removed,
             dict(by_sender), kept)
        )

    # ------------------------------------------------------------------
    # materialisation + dump
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """The ring contents in the canonical TraceRecorder dict shapes
        (oldest first) — what :func:`repro.obs.spans.build_spans` and the
        trace timeline consume."""
        return [_MATERIALIZE[item[0]](item) for item in self._ring]

    @property
    def dropped(self) -> int:
        """Records that have aged off the back of the ring."""
        return self.recorded - len(self._ring)

    def header(self, reason: Optional[str] = None) -> Dict[str, Any]:
        head: Dict[str, Any] = {"k": "header", "version": TRACE_VERSION}
        head.update(self.meta)
        head["flight"] = {
            "reason": reason,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "dumped_at_ms": self._clock(),
        }
        return head

    def dump(self, path: str, reason: str) -> str:
        """Write the ring as a TRACE_VERSION JSONL artifact at ``path``
        (atomic temp-write + rename; callable repeatedly — each trigger
        gets its own snapshot of the ring).  Returns ``path``."""
        import json
        import os

        path = str(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(json.dumps(self.header(reason), sort_keys=True) + "\n")
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, path)  # atomic: readers never see a torn dump
        return path

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self._ring)}/{self.capacity} records, "
            f"{self.dropped} dropped>"
        )


#: tuple-tag -> canonical record dict, shapes identical to TraceRecorder
_MATERIALIZE: Dict[str, Callable[[Tuple[Any, ...]], Dict[str, Any]]] = {
    "issue": lambda r: {
        "k": "issue", "t": r[1], "s": r[2], "v": r[3],
        "w": encode_write_id(r[4]), "d": [int(d) for d in r[5]],
    },
    "send": lambda r: {
        "k": "send", "t": r[1], "s": r[2], "d": r[3],
        "w": encode_write_id(r[4]),
    },
    "enqueue": lambda r: {
        "k": "enqueue", "t": r[1], "s": r[2], "d": r[3],
        "w": encode_write_id(r[4]), "a": r[5],
    },
    "hold": lambda r: {
        "k": "hold", "t": r[1], "s": r[2], "d": r[3],
        "w": encode_write_id(r[4]),
    },
    "drop": lambda r: {
        "k": "drop", "t": r[1], "s": r[2], "d": r[3],
        "w": encode_write_id(r[4]),
    },
    "deliver": lambda r: {
        "k": "deliver", "t": r[1], "s": r[2], "w": encode_write_id(r[3]),
    },
    "buffered": lambda r: {
        "k": "buffered", "t": r[1], "s": r[2], "w": encode_write_id(r[3]),
        "b": [[int(z), int(c)] for z, c in r[4]],
    },
    "wake": lambda r: {
        "k": "wake", "t": r[1], "s": r[2], "o": r[3], "p": int(r[4]),
        "w": [encode_write_id(w) for w in r[5]],
        "r": [encode_write_id(w) for w in r[6]],
    },
    "apply": lambda r: {
        "k": "apply", "t": r[1], "s": r[2], "v": r[3],
        "w": encode_write_id(r[4]), "rt": r[5],
    },
    "read": lambda r: {
        "k": "read", "t": r[1], "s": r[2], "v": r[3],
        "w": encode_write_id(r[4]),
    },
    "prune": lambda r: {
        "k": "prune", "t": r[1], "s": r[2], "c": r[3], "v": r[4],
        "n": int(r[5]), "z": {str(z): int(n) for z, n in sorted(r[6].items())},
        "kept": int(r[7]),
    },
}


__all__ = [
    "DEFAULT_FLIGHT_CAPACITY",
    "FlightRecorder",
]

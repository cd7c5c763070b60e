"""Deterministic discrete-event simulation engine.

A minimal, fast event loop: a binary heap of ``(time, seq, callback)``
entries.  ``seq`` is a global insertion counter, so events at equal
simulated times fire in schedule order — together with seeded RNGs this
makes every run bit-for-bit reproducible.

Time is unitless; the latency models interpret it as milliseconds.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError


class EventHandle:
    """One scheduled callback, and the caller's handle to it (``schedule``
    returns the heap entry itself; most callers drop it).  Heap entries
    are ``(time, seq, event)`` tuples rather than the events themselves:
    ``seq`` is unique, so tuple comparison never reaches the event, and
    ordering stays in C instead of a Python-level ``__lt__`` per heap
    sift."""

    __slots__ = ("time", "fn", "cancelled", "done", "_sim")

    def __init__(self, time: float, fn: Callable[[], None], sim: "Simulator") -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False
        self.done = False
        self._sim = sim

    def cancel(self) -> None:
        """Keep the event from firing; a no-op once fired or cancelled."""
        if not self.cancelled and not self.done:
            self.cancelled = True
            self._sim._pending_live -= 1


class Simulator:
    """The discrete-event scheduler."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq: int = 0
        self._pending_live: int = 0
        self.events_processed: int = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = EventHandle(time, fn, self)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        self._pending_live += 1
        return event

    def schedule_at(self, time: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` at absolute simulated time ``time``.

        The event fires at ``now + (time - now)``, which can differ from
        ``time`` in the last bit; every recorded run carries that rounding,
        so it is kept."""
        return self.schedule(time - self.now, fn)

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.

        O(1): a live counter maintained by ``schedule`` / ``cancel`` /
        ``step``, instead of a scan over the heap (which retains cancelled
        entries until they reach the top).
        """
        return self._pending_live

    def peek_time(self) -> Optional[float]:
        """Simulated time of the next event, or None if the queue is empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        while self._heap:
            entry = heapq.heappop(self._heap)[2]
            if entry.cancelled:
                continue
            if entry.time < self.now:
                raise SimulationError(
                    f"time went backwards: {entry.time} < {self.now}"
                )
            self.now = entry.time
            entry.done = True
            self._pending_live -= 1
            self.events_processed += 1
            entry.fn()
            return True
        return False

    def stats(self) -> dict:
        """Scheduler counters, in the shape the ``repro.obs`` registry
        publishes (``Cluster.publish_metrics``)."""
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "pending": self._pending_live,
        }

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run events until the queue empties, ``until`` time is reached,
        ``max_events`` have fired, or ``stop_when()`` turns true (checked
        after every event).  Returns the number of events processed."""
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                return fired
            if stop_when is not None and stop_when():
                return fired
            nxt = self.peek_time()
            if nxt is None:
                return fired
            if until is not None and nxt > until:
                self.now = until
                return fired
            self.step()
            fired += 1

"""Deterministic discrete-event simulation engine.

A minimal, fast event loop over one binary heap.  Every entry starts
``(time, seq, ...)``; ``seq`` is a global insertion counter, so events at
equal simulated times fire in push order — together with seeded RNGs this
makes every run bit-for-bit reproducible — and tuple comparison never
looks past it, so heap ordering stays in C.

An entry comes in one of two shapes:

* ``(time, seq, fn, *args)`` — pushed by :meth:`Simulator.post`, the
  fire-and-forget path for callers that never cancel: a network delivery
  is ``(arrival, seq, deliver, msg, src, dst)``, one heap tuple per
  message in flight and nothing else;
* ``(time, seq, None, handle)`` — pushed by :meth:`Simulator.schedule`,
  which returns the cancellable :class:`EventHandle`.

Time is unitless; the latency models interpret it as milliseconds.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


class EventHandle:
    """A cancellable scheduled callback, returned by
    :meth:`Simulator.schedule`.  Its heap entry is ``(time, seq, None,
    handle)``: the ``None`` marks the entry as a handle's."""

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
            self._sim._cancelled += 1


class Simulator:
    """The discrete-event scheduler."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._seq: int = 0
        #: cancelled handles whose entries are still in the heap
        self._cancelled: int = 0
        self.events_processed: int = 0

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` time units from now; the event cannot
        be cancelled.  The heap entry is the only object this allocates."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, *args))
        self._seq += 1

    def schedule(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` time units from now; returns a
        handle that can cancel it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = EventHandle(time, fn, self)
        heapq.heappush(self._heap, (time, self._seq, None, event))
        self._seq += 1
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

        O(1): the heap retains cancelled entries until they reach the top,
        so this is its length less the count of those."""
        return len(self._heap) - self._cancelled

    def peek_time(self) -> Optional[float]:
        """Simulated time of the next event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        return self._drain(1) == 1

    def _drain(self, max_events: Optional[int]) -> int:
        """Pop and dispatch until the heap empties or ``max_events`` have
        fired; returns the number fired.  Cancelled entries are dropped
        uncounted on the way."""
        heap = self._heap
        pop = heapq.heappop
        limit = -1 if max_events is None else max_events
        fired = 0
        while heap and fired != limit:
            entry = pop(heap)
            time = entry[0]
            fn = entry[2]
            if fn is None:
                event = entry[3]
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.done = True
                fn = event.fn
                args: tuple = ()
            else:
                args = entry[3:]
            if time < self.now:
                raise SimulationError(f"time went backwards: {time} < {self.now}")
            self.now = time
            self.events_processed += 1
            fired += 1
            fn(*args)
        return fired

    def stats(self) -> dict:
        """Scheduler counters, in the shape the ``repro.obs`` registry
        publishes (``Cluster.publish_metrics``)."""
        return {
            "now": self.now,
            "events_processed": self.events_processed,
            "pending": self.pending,
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
        if max_events is not None and max_events <= 0:
            return 0
        if until is None and stop_when is None:
            return self._drain(max_events)
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
                # an ``until`` already in the past must not rewind the clock
                self.now = max(self.now, until)
                return fired
            self.step()
            fired += 1

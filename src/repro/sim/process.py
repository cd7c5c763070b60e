"""The application process: issues the workload's operations at one site.

Each site hosts exactly one application process (paper Section II).  The
process executes its operation sequence in program order:

* **write** — runs the protocol's write, multicasts the updates, completes
  immediately (writes are non-blocking; this is why causal consistency can
  provide low latency);
* **local read** — completes immediately from the local replica;
* **remote read** — sends a ``RemoteFetch`` to the predesignated replica
  and blocks until the reply arrives (the primitive is synchronous).

``think_time`` spaces consecutive operations; drawing it from the site's
seeded RNG stream keeps interleavings reproducible but varied.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.sim.site import SimSite
from repro.types import Operation, OpKind, SiteId


class AppProcess:
    """Drives one site's operation sequence through the simulation."""

    def __init__(
        self,
        sim_site: SimSite,
        ops: Iterable[Operation],
        rng: np.random.Generator,
        think_time: float = 1.0,
        think_jitter: bool = True,
        fetch_preference: Optional[Callable[[str], Optional[SiteId]]] = None,
    ) -> None:
        self.sim_site = sim_site
        self.site: SiteId = sim_site.site
        self._ops: Iterator[Operation] = iter(ops)
        self.rng = rng
        self.think_time = think_time
        self.think_jitter = think_jitter
        #: maps a variable to the preferred (e.g. nearest) serving replica
        self.fetch_preference = fetch_preference
        self.ops_completed = 0
        self.done = False
        self._waiting_fetch = False
        self._op_started_at = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first operation."""
        self.sim_site.sim.post(self._next_delay(), self._issue_next)

    def _next_delay(self) -> float:
        if self.think_time <= 0:
            return 0.0
        if self.think_jitter:
            return float(self.rng.exponential(self.think_time))
        return self.think_time

    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        op = next(self._ops, None)
        if op is None:
            self.done = True
            return
        self._op_started_at = self.sim_site.sim.now
        if op.kind is OpKind.WRITE:
            self._do_write(op)
        else:
            self._do_read(op)

    def _finish_op(self, kind: str) -> None:
        now = self.sim_site.sim.now
        if self.sim_site.metrics is not None:
            self.sim_site.metrics.on_op(kind, now - self._op_started_at)
        self.ops_completed += 1
        self.sim_site.sim.post(self._next_delay(), self._issue_next)

    # ------------------------------------------------------------------
    def _do_write(self, op: Operation) -> None:
        site = self.sim_site
        result = site.protocol.write(op.var, op.value)
        site.broadcast_write(result, op.var, op.value)
        site.drain()  # a state change may unblock buffered work
        self._finish_op("write")

    def _do_read(self, op: Operation) -> None:
        site = self.sim_site
        proto = site.protocol
        if proto.locally_replicates(op.var):
            # a remote read may have advanced our causal past beyond the
            # local replica state; block until the replica catches up
            self._waiting_fetch = True

            def do_local_read() -> None:
                self._waiting_fetch = False
                value, write_id = proto.read_local(op.var)
                self._complete_read(op, value, write_id, local=True)

            site.wait_local_read(op.var, do_local_read)
            return
        prefer = (
            self.fetch_preference(op.var) if self.fetch_preference else None
        )
        self._waiting_fetch = True

        def on_done(value, write_id) -> None:
            self._waiting_fetch = False
            self._complete_read(op, value, write_id, local=False)

        site.remote_read(op.var, proto.fetch_target(op.var, prefer), on_done)

    def _complete_read(self, op: Operation, value, write_id, local: bool) -> None:
        self.sim_site.observe_read(op.var, value, write_id)
        self._finish_op("read-local" if local else "read-remote")

    # ------------------------------------------------------------------
    @property
    def blocked(self) -> bool:
        """True while waiting on a remote fetch."""
        return self._waiting_fetch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "blocked" if self.blocked else ("done" if self.done else "running")
        return f"<AppProcess site={self.site} {state} ops={self.ops_completed}>"

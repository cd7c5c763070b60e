"""Runtime causal sanitizer: a Full-Track oracle shadowing any protocol.

``ClusterConfig(sanitize=True)`` attaches one :class:`CausalSanitizer` to
the cluster.  It maintains, per site, an independent **matrix-clock
oracle** — the Full-Track ``Write``/``Apply`` state of paper Algorithm 1,
fed only by the observable operation stream (writes, applies, read
returns), never by the protocol under test's own metadata.  On every
update apply it asserts:

1. **activation safety** — the apply respects the optimal activation
   predicate ``A_OPT`` against the oracle: every write in the writer's
   causal past (under ``~>co``) destined to this site has been applied,
   and this is exactly the next update from its sender;
2. **KS optimality conditions** (Opt-Track only) — the piggybacked
   dependency log carries no record redundant under Condition 2 (a
   record still naming a third replica of the written variable), and the
   log stored after the apply honours Condition 1 (no record names the
   applying site itself);
3. **per-sender monotonicity** — applies from one writer happen in issue
   order (FIFO + causal order imply it; a violation means a protocol or
   transport bug).

On violation a :class:`~repro.errors.SanitizerViolation` is raised
carrying the full :class:`CausalTrace` — the ordered write/apply/read
event stream that reproduces the failure when replayed against the
protocol.

Soundness notes
---------------

* The oracle's merge points are the *read returns* (value + producing
  write id), so it tracks the paper's ``~>co`` relation — not Lamport
  happened-before — and never reports false causality.  A read path that
  lacks a sanitizer hook only makes the oracle *more lenient* (its view
  of the causal past under-approximates), never a false positive.
* The sender-slot equality (``Apply[j] == W[j,i] - 1``) is exact: row
  ``j`` of the writer's own matrix counts precisely its own writes, with
  no merge ever needed.
* The Condition-1 check is gated on the stored ``LastWriteOn`` object
  actually changing, which skips the dominated-update completion path
  (where Opt-Track deliberately keeps the newer stored log).
* Cost: one ``n × n`` matrix copy per write plus an O(n) vector compare
  per apply, and the trace retains every event — strictly a debugging /
  property-testing configuration, not a benchmarking one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core import bitsets
from repro.core.base import CausalProtocol
from repro.core.messages import OptTrackMeta, UpdateMessage
from repro.core.opt_track import OptTrackProtocol
from repro.errors import SanitizerViolation
from repro.types import SiteId, VarId, WriteId


@dataclass(frozen=True)
class TraceEvent:
    """One observable protocol event, in global simulated-time order."""

    kind: str  #: "write" | "apply" | "apply-local" | "read"
    time: float
    site: SiteId
    var: VarId
    write_id: Optional[WriteId]
    detail: str = ""

    def __str__(self) -> str:
        wid = self.write_id if self.write_id is not None else "-"
        extra = f" {self.detail}" if self.detail else ""
        return f"t={self.time:<8g} s{self.site} {self.kind:<11} {self.var}={wid}{extra}"


@dataclass
class CausalTrace:
    """The replayable event stream the sanitizer observed."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def format(self, tail: Optional[int] = None) -> str:
        events = self.events if tail is None else self.events[-tail:]
        skipped = len(self.events) - len(events)
        lines = [f"... ({skipped} earlier events)"] if skipped else []
        lines.extend(str(e) for e in events)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)


class CausalSanitizer:
    """Shadow Full-Track oracle checking every apply (see module doc)."""

    def __init__(self, n: int) -> None:
        self.n = n
        #: per site: the oracle's Write matrix (built from the observable
        #: stream, independent of the protocol under test)
        self.write = [np.zeros((n, n), dtype=np.int64) for _ in range(n)]
        #: per site: the oracle's Apply vector (update count per writer)
        self.applied = [np.zeros(n, dtype=np.int64) for _ in range(n)]
        #: per site, per writer: seq of the last write applied (monotonicity)
        self.last_seq = [dict() for _ in range(n)]  # type: List[Dict[int, int]]
        #: writer's oracle matrix frozen at write time, per write
        self.shadows: Dict[WriteId, np.ndarray] = {}
        self.trace = CausalTrace()
        #: pre-apply LastWriteOn object per (site, var), for the
        #: Condition-1 dominated-skip gate
        self._pre_stored: Dict[Tuple[SiteId, VarId], Any] = {}
        self.checks_run = 0
        #: the remote apply :meth:`on_check` passed, awaiting its commit
        self._checked: Optional[Tuple[CausalProtocol, UpdateMessage]] = None
        #: the first violation raised, kept here durably: under the
        #: service layer a check fires inside a connection-handler task,
        #: where the raise can be swallowed by connection teardown — the
        #: schedule explorer re-raises this after the run instead
        self.first_violation: Optional[SanitizerViolation] = None

    # ------------------------------------------------------------------
    # seam subscriber (repro.core.observe): issue, check, apply, read
    # ------------------------------------------------------------------
    def on_issue(
        self,
        t: float,
        site: SiteId,
        var: VarId,
        write_id: WriteId,
        dests: Tuple[SiteId, ...],
        value: Any,
        local: bool,
    ) -> None:
        w = self.write[site]
        for dest in dests:
            w[site, dest] += 1
        self.shadows[write_id] = w.copy()
        self.trace.record(
            TraceEvent("write", t, site, var, write_id, f"dests={list(dests)}")
        )
        if local:
            self.applied[site][site] += 1
            self.last_seq[site][site] = write_id.seq
            self.trace.record(TraceEvent("apply-local", t, site, var, write_id))

    def on_read(
        self,
        t: float,
        site: SiteId,
        var: VarId,
        write_id: Optional[WriteId],
        value: Any,
    ) -> None:
        self.trace.record(TraceEvent("read", t, site, var, write_id))
        if write_id is None:
            return
        shadow = self.shadows.get(write_id)
        if shadow is not None:
            np.maximum(self.write[site], shadow, out=self.write[site])

    def on_check(self, t: float, protocol: CausalProtocol, msg: UpdateMessage) -> None:
        """Judge a remote apply before ``apply_update`` runs; the
        :meth:`on_apply` that follows commits it."""
        site = protocol.site
        self.trace.record(
            TraceEvent("apply", t, site, msg.var, msg.write_id, f"from s{msg.sender}")
        )
        self.checks_run += 1
        self._check_monotone(site, msg.sender, msg.write_id)
        self._check_activation(site, msg.sender, msg.write_id)
        if isinstance(msg.meta, OptTrackMeta):
            self._check_condition2(protocol, msg)
            self._pre_stored[(site, msg.var)] = getattr(
                protocol, "last_write_on", {}
            ).get(msg.var)
        self._checked = (protocol, msg)

    def on_apply(
        self,
        t: float,
        site: SiteId,
        var: VarId,
        write_id: WriteId,
        recv_time: float,
    ) -> None:
        checked, self._checked = self._checked, None
        if checked is None:
            return  # the writer's own apply: committed at issue
        protocol, msg = checked
        self.applied[site][msg.sender] += 1
        self.last_seq[site][msg.sender] = write_id.seq
        if isinstance(msg.meta, OptTrackMeta):
            self._check_condition1(protocol, msg)

    def observe_apply(
        self,
        site: SiteId,
        var: VarId,
        write_id: WriteId,
        now: float = 0.0,
        local: bool = False,
    ) -> None:
        """Protocol-independent apply observation (the trace-replay path).

        Runs the protocol-*independent* checks (per-sender monotonicity and
        ``A_OPT`` activation safety) and commits the apply to the oracle.
        The KS Condition-1/2 checks need the live protocol's dependency-log
        state and are live-run only — :meth:`on_check`/:meth:`on_apply`
        remain the full-strength path.  ``local`` marks the writer applying
        its own update (no checks, mirroring ``on_issue(..., local=True)``).
        """
        if local:
            self.trace.record(TraceEvent("apply-local", now, site, var, write_id))
            self.applied[site][site] += 1
            self.last_seq[site][site] = write_id.seq
            return
        sender = write_id.site
        self.trace.record(
            TraceEvent("apply", now, site, var, write_id, f"from s{sender}")
        )
        self.checks_run += 1
        self._check_monotone(site, sender, write_id)
        self._check_activation(site, sender, write_id)
        self.applied[site][sender] += 1
        self.last_seq[site][sender] = write_id.seq

    def publish(self, registry: Any, **labels: Any) -> None:
        """Export oracle totals into a ``repro.obs`` metrics registry."""
        registry.counter("sanitizer_checks_total", **labels).inc(self.checks_run)
        registry.counter("sanitizer_trace_events_total", **labels).inc(
            len(self.trace)
        )

    # ------------------------------------------------------------------
    # the checks
    # ------------------------------------------------------------------
    def _check_monotone(self, site: SiteId, sender: SiteId, write_id: WriteId) -> None:
        last = self.last_seq[site].get(sender)
        if last is not None and write_id.seq <= last:
            self._fail(
                f"per-sender monotonicity violated at site {site}: applying "
                f"{write_id} from s{sender} after already applying "
                f"seq {last}"
            )

    def _check_activation(self, site: SiteId, sender: SiteId, write_id: WriteId) -> None:
        shadow = self.shadows.get(write_id)
        if shadow is None:
            # a write the oracle never saw issued (e.g. injected by a test
            # harness outside the session API): nothing to check against
            return
        col = shadow[:, site]
        applied = self.applied[site]
        j = sender
        if applied[j] != col[j] - 1:
            self._fail(
                f"unsafe activation at site {site}: {write_id} from "
                f"s{j} is update #{col[j]} destined here, but the site has "
                f"applied {applied[j]} from that sender (expected "
                f"{col[j] - 1})"
            )
        behind = [
            (int(k), int(applied[k]), int(col[k]))
            for k in np.nonzero(applied < col)[0]
            if k != j
        ]
        if behind:
            detail = ", ".join(
                f"s{k}: applied {a} < required {c}" for k, a, c in behind
            )
            self._fail(
                f"unsafe activation at site {site}: {write_id} applied "
                f"before its causal past ({detail}) — the activation "
                f"predicate A_OPT does not hold"
            )

    def _check_condition2(self, protocol: CausalProtocol, msg: UpdateMessage) -> None:
        if getattr(protocol, "distributed_prune", False):
            return  # the variant piggybacks the unpruned shared log by design
        meta: OptTrackMeta = msg.meta
        redundant = meta.replicas_mask & ~bitsets.singleton(msg.dest) & ~bitsets.singleton(msg.sender)
        for (z, c), dests in meta.log:
            if dests & redundant:
                names = list(bitsets.iter_sites(dests & redundant))
                self._fail(
                    f"KS Condition 2 violated on {msg}: piggybacked record "
                    f"<s{z}, {c}> still names replica(s) {names} of "
                    f"{msg.var!r} — the sender failed to prune destinations "
                    f"covered transitively by this very update"
                )

    def _check_condition1(self, protocol: CausalProtocol, msg: UpdateMessage) -> None:
        if not isinstance(protocol, OptTrackProtocol):
            return
        site = protocol.site
        pre = self._pre_stored.pop((site, msg.var), None)
        stored = protocol.last_write_on.get(msg.var)
        if stored is None or stored is pre:
            # dominated-update completion: Opt-Track keeps the newer stored
            # log untouched, so there is nothing fresh to check
            return
        me = bitsets.singleton(site)
        for (z, c), dests in stored:
            if dests & me:
                self._fail(
                    f"KS Condition 1 violated at site {site}: after applying "
                    f"{msg.write_id} the stored log for {msg.var!r} still "
                    f"names the site itself in record <s{z}, {c}> — applied "
                    f"dependencies must be pruned (lines 29-30)"
                )

    # ------------------------------------------------------------------
    def _fail(self, reason: str) -> None:
        violation = SanitizerViolation(
            f"{reason}\n--- causal trace (last 30 of {len(self.trace)} "
            f"events) ---\n{self.trace.format(tail=30)}",
            trace=self.trace,
        )
        if self.first_violation is None:
            self.first_violation = violation
        raise violation

"""Trace events mirroring the paper's underlying-system event taxonomy.

Section II-B lists the events the read/write operations generate in the
message-passing system: ``send``, ``fetch``, ``message receipt``,
``apply``, ``remote return`` and ``return``.  The optional
:class:`Tracer` collects them for debugging, visualization, and the
scenario tests that replay the paper's Figures 2 and 3; it is a
subscriber of the observation seam (:mod:`repro.core.observe`), taking
exactly those six events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.types import SiteId, VarId, WriteId


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base trace event: what happened, where, when."""

    time: float
    site: SiteId


@dataclass(frozen=True, slots=True)
class SendEvent(TraceEvent):
    """``send_i(m)`` — an update message left site ``site``."""

    dest: SiteId
    var: VarId
    write_id: WriteId


@dataclass(frozen=True, slots=True)
class FetchEvent(TraceEvent):
    """``fetch_i(f)`` — a remote-read request left site ``site``."""

    server: SiteId
    var: VarId


@dataclass(frozen=True, slots=True)
class ReceiptEvent(TraceEvent):
    """``receipt_i(m)`` — a message arrived at site ``site``."""

    origin: SiteId
    kind: str  # "update" | "fetch" | "fetch-reply"
    var: VarId


@dataclass(frozen=True, slots=True)
class ApplyEvent(TraceEvent):
    """``apply_i(w_j(x_h)v)`` — an update was applied at site ``site``."""

    var: VarId
    write_id: WriteId
    writer: SiteId


@dataclass(frozen=True, slots=True)
class RemoteReturnEvent(TraceEvent):
    """``remote_return_i(r_j(x_h)u)`` — site ``site`` answered a fetch."""

    requester: SiteId
    var: VarId


@dataclass(frozen=True, slots=True)
class ReturnEvent(TraceEvent):
    """``return_i(x_h, v)`` — a read completed at site ``site``."""

    var: VarId
    value: Any
    write_id: Optional[WriteId]


class Tracer:
    """Collects trace events when enabled (a no-op otherwise)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        if self.enabled:
            self.events.append(event)

    # seam subscriber: the six §II-B events
    def on_send(self, t, src, dest, write_id, var) -> None:
        self.emit(SendEvent(t, src, dest, var, write_id))

    def on_fetch(self, t, site, server, var) -> None:
        self.emit(FetchEvent(t, site, server, var))

    def on_receipt(self, t, site, origin, kind, var) -> None:
        self.emit(ReceiptEvent(t, site, origin, kind, var))

    def on_apply(self, t, site, var, write_id, recv_time) -> None:
        self.emit(ApplyEvent(t, site, var, write_id, write_id.site))

    def on_remote_return(self, t, site, requester, var) -> None:
        self.emit(RemoteReturnEvent(t, site, requester, var))

    def on_read(self, t, site, var, write_id, value) -> None:
        self.emit(ReturnEvent(t, site, var, value, write_id))

    def of_type(self, cls: type) -> List[TraceEvent]:
        return [e for e in self.events if isinstance(e, cls)]

    def at_site(self, site: SiteId) -> List[TraceEvent]:
        return [e for e in self.events if e.site == site]

    def clear(self) -> None:
        self.events.clear()

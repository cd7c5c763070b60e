"""The observation seam: one event schema, one subscriber fan-out.

Every program point of the simulator (``SimSite``, ``Session``,
``AppProcess``, ``Network``), the service (``SiteServer``) and the
protocols (dependency-log prunes) reports what happened through one
call on one object: the :class:`Fanout` built by :func:`observe`, or
``None`` when nothing is attached — so the off path is one ``is not
None`` test, with no call and no argument packing.

The schema is PAPER.md §II-B's event taxonomy — ``send``, ``fetch``,
``receipt``, ``apply``, ``remote_return`` and ``read`` (the paper's
``return``) — plus the events the consumers already needed and nothing
else: ``issue``, ``deliver``, ``buffered`` (an update parked because its
activation predicate is false) and ``wake`` on the sites; ``check``, the
sanitizer's pre-apply test, which may raise before ``apply_update`` runs;
``enqueue``, ``hold`` and ``drop`` in the transport; and the protocol's
``prune``.  :data:`EVENTS` names each event's fields in call order;
docs/observability.md tabulates who emits and who consumes each one.

A subscriber is any object with ``on_<event>`` methods for the events it
takes, in the schema's argument order; fields it does not keep may be
swallowed by a trailing ``*_``.  Optional attributes: ``enabled`` (a
subscriber attached while false is left out) and ``needs_reasons`` (it
wants the pre-prune log snapshots that explain a ``prune`` — the only
event whose arguments cost work to build).  The five subscribers are the
§II-B ``sim.events.Tracer``, ``obs.recorder.TraceRecorder``,
``obs.flight.FlightRecorder``, ``verify.sanitizer.CausalSanitizer`` and
``verify.history.History``.

The schema lives in ``core`` because the protocols emit ``prune`` and
``sim``, ``service``, ``obs`` and ``verify`` must all reach it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

#: event -> its fields, in call order.  Times are simulated ms (sim) or
#: ms since the cluster's clock origin (service); ``prune`` carries none:
#: protocols are clockless, so recorders stamp it with their bound clock.
EVENTS: Dict[str, Tuple[str, ...]] = {
    "issue": ("t", "site", "var", "write_id", "dests", "value", "local"),
    "send": ("t", "src", "dest", "write_id", "var"),
    "enqueue": ("t", "src", "dest", "write_id", "arrival"),
    "hold": ("t", "src", "dest", "write_id"),
    "drop": ("t", "src", "dest", "write_id"),
    "fetch": ("t", "site", "server", "var"),
    "receipt": ("t", "site", "origin", "kind", "var"),
    "deliver": ("t", "site", "write_id"),
    "buffered": ("t", "site", "write_id", "blocking"),
    "wake": ("t", "site", "origin", "progress", "ready", "reparked"),
    "check": ("t", "protocol", "msg"),
    "apply": ("t", "site", "var", "write_id", "recv_time"),
    "remote_return": ("t", "site", "requester", "var"),
    "read": ("t", "site", "var", "write_id", "value"),
    "prune": ("site", "condition", "var", "removed", "by_sender", "kept"),
}

Handler = Callable[..., None]


def _ignore(*args: Any) -> None:
    """The handler of an event no subscriber takes."""


def _fan(handlers: Tuple[Handler, ...]) -> Handler:
    if not handlers:
        return _ignore
    if len(handlers) == 1:
        return handlers[0]  # no extra frame for the common single subscriber

    def fan(*args: Any) -> None:
        for handler in handlers:
            handler(*args)

    return fan


class Fanout:
    """The subscriber list behind the seam: ``on_<event>(*fields)``
    calls every subscriber's handler for that event, in attach order (the
    sanitizer goes first so a violation raises before anything records
    the transition)."""

    on_issue: Handler
    on_send: Handler
    on_enqueue: Handler
    on_hold: Handler
    on_drop: Handler
    on_fetch: Handler
    on_receipt: Handler
    on_deliver: Handler
    on_buffered: Handler
    on_wake: Handler
    on_check: Handler
    on_apply: Handler
    on_remote_return: Handler
    on_read: Handler
    on_prune: Handler

    def __init__(self, subscribers: Tuple[Any, ...]) -> None:
        self.subscribers = subscribers
        self.needs_reasons = any(
            getattr(s, "needs_reasons", False) for s in subscribers
        )
        for event in EVENTS:
            name = "on_" + event
            handlers = (getattr(s, name, None) for s in subscribers)
            setattr(self, name, _fan(tuple(h for h in handlers if h is not None)))

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Hand the clock that stamps ``prune`` to the subscribers that
        keep one."""
        for s in self.subscribers:
            bind = getattr(s, "bind_clock", None)
            if bind is not None:
                bind(clock)


def observe(*subscribers: Any) -> Optional[Fanout]:
    """The seam over ``subscribers`` (``None`` entries and disabled ones
    left out), or ``None`` when that leaves nothing."""
    live = tuple(
        s for s in subscribers if s is not None and getattr(s, "enabled", True)
    )
    return Fanout(live) if live else None


__all__ = ["EVENTS", "Fanout", "observe"]

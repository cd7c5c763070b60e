"""Message descriptors exchanged by the protocols.

These are *descriptions* of messages: the protocols construct them, the
simulation layer transports them, and the metrics layer sizes them.  The
underlying system (paper Section II-B) provides two primitives:

* ``Multicast(m)`` — a write operation produces one :class:`UpdateMessage`
  per remote replica of the written variable;
* ``RemoteFetch(m)`` — a read of a non-locally-replicated variable produces
  a :class:`FetchRequest` to a predesignated replica, answered by a
  :class:`FetchReply` (synchronous: the reader blocks).

``meta`` is the protocol-specific piggybacked control information (a matrix
clock, a vector clock, or a pruned dependency log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.log import DepLog
from repro.types import SiteId, VarId, WriteId


@dataclass(frozen=True, slots=True)
class OptTrackMeta:
    """Control payload of an Opt-Track update message
    (Alg. 2 line 9: ``m(x_h, v, i, clock_i, x_h.replicas, L_w)``)."""

    clock: int
    replicas_mask: int
    log: DepLog


@dataclass(frozen=True, slots=True)
class CrpMeta:
    """Control payload of an Opt-Track-CRP update message
    (Alg. 4 line 2: ``m(x_h, v, i, clock_i, LOG_i)``).

    The log degenerates to 2-tuples; we carry it as ``{sender: clock}``.
    """

    clock: int
    log: dict[int, int]


@dataclass(frozen=True, slots=True)
class UpdateMessage:
    """One update message, addressed to a single destination site.

    A write multicast to ``k`` remote replicas is ``k`` of these (the
    message-count metric counts each individually, as the paper does).
    """

    var: VarId
    value: Any
    write_id: WriteId
    sender: SiteId
    dest: SiteId
    meta: Any

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"upd({self.var}={self.value!r} {self.write_id} {self.sender}->{self.dest})"


@dataclass(frozen=True, slots=True)
class FetchRequest:
    """A remote-read request for ``var`` sent to a predesignated replica.

    ``deps`` carries the requester's causal-dependency summary (see
    DESIGN.md §2a): the serving site defers the reply until its applied
    state covers these dependencies, which is what makes a remote read
    causally safe.  ``deps`` is ``None`` when the protocol does not need
    it.
    """

    var: VarId
    requester: SiteId
    server: SiteId
    #: monotonically increasing per-requester fetch id, to pair replies
    fetch_id: int
    deps: Any = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"fetch({self.var} {self.requester}->{self.server} #{self.fetch_id})"


@dataclass(frozen=True, slots=True)
class FetchReply:
    """Reply to a :class:`FetchRequest`.

    Carries the variable's current value at the server, the id of the write
    that produced it (``None`` = initial value), and the server's
    ``LastWriteOn`` control metadata for the variable, which the requester
    merges into its local state (Alg. 1 lines 9-10 / Alg. 2 lines 19-20).

    ``applied`` is the server's apply-progress snapshot at serve time (a
    per-origin clock vector).  The requester tests it against its own
    dependency summary (:meth:`repro.core.base.CausalProtocol.reply_is_fresh`)
    to reject replies served before the server caught up with the
    requester's causal past — the client-side staleness gate for a reply
    that went stale in flight, while the requester's summary grew past
    the ``deps`` it sent.  ``None`` for protocols that do not expose
    apply progress.
    """

    var: VarId
    value: Any
    write_id: Optional[WriteId]
    server: SiteId
    requester: SiteId
    fetch_id: int
    meta: Any = None
    applied: Any = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"reply({self.var}={self.value!r} {self.server}->{self.requester} #{self.fetch_id})"


@dataclass(slots=True)
class WriteResult:
    """Outcome of a local write operation."""

    write_id: WriteId
    #: update messages to hand to the transport (one per remote replica)
    messages: list[UpdateMessage] = field(default_factory=list)
    #: True when the written variable is locally replicated and the value
    #: was applied to the local copy as part of the write
    applied_locally: bool = False

"""Protocol interface shared by all five causal-consistency algorithms.

Protocols are *pure state machines*: they hold one site's state, consume
``write``/``read``/``deliver`` calls, and emit message descriptors.  They
never touch time, sockets, or threads — the simulation layer owns transport
and scheduling, and unit tests can drive a protocol directly (including
through adversarial message orderings).

The update path is split in two so the caller can buffer messages whose
activation predicate is not yet true (the paper models this with one thread
per pending update; we model it with a pending set re-evaluated after every
state change):

* :meth:`CausalProtocol.can_apply` — evaluate the activation predicate;
* :meth:`CausalProtocol.apply_update` — apply an activated update.

Remote reads are likewise split (``make_fetch_request`` / server-side
``can_serve_fetch`` + ``serve_fetch`` / requester-side
``complete_remote_read``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, Mapping, Optional, Tuple

from repro.core import bitsets
from repro.core.messages import FetchReply, FetchRequest, UpdateMessage, WriteResult
from repro.core.observe import Fanout
from repro.errors import (
    ConfigurationError,
    ProtocolInvariantError,
    UnknownProtocolError,
    UnknownVariableError,
)
from repro.types import BOTTOM, SiteId, VarId, WriteId


@dataclass(frozen=True)
class ProtocolConfig:
    """Static configuration shared by every site's protocol instance.

    ``replicas_of`` is the placement map: variable -> ordered tuple of the
    sites replicating it (the paper's ``x_h.replicas``).  It must be the
    same object (or an equal mapping) at every site.
    """

    n: int
    site: SiteId
    replicas_of: Mapping[VarId, Tuple[SiteId, ...]]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"need n >= 1 sites, got {self.n}")
        if not (0 <= self.site < self.n):
            raise ConfigurationError(
                f"site id {self.site} out of range for n={self.n}"
            )
        for var, reps in self.replicas_of.items():
            if len(reps) == 0:
                raise ConfigurationError(f"variable {var!r} has no replicas")
            if len(set(reps)) != len(reps):
                raise ConfigurationError(f"variable {var!r} has duplicate replicas")
            for s in reps:
                if not (0 <= s < self.n):
                    raise ConfigurationError(
                        f"variable {var!r} replica {s} out of range for n={self.n}"
                    )


class CausalProtocol(ABC):
    """Per-site protocol state machine (abstract base)."""

    #: registry key, e.g. ``"full-track"``
    name: ClassVar[str] = "abstract"
    #: True for protocols that require every variable on every site
    full_replication_only: ClassVar[bool] = False

    def __init__(self, config: ProtocolConfig) -> None:
        self.config = config
        self.site: SiteId = config.site
        self.n: int = config.n
        if self.full_replication_only:
            for var, reps in config.replicas_of.items():
                if len(reps) != config.n:
                    raise ConfigurationError(
                        f"protocol {self.name!r} requires full replication, "
                        f"but {var!r} is replicated on {len(reps)}/{config.n} sites"
                    )
        #: replica bitmask per variable (precomputed once)
        self._replica_mask: Dict[VarId, int] = {
            var: bitsets.mask_of(reps) for var, reps in config.replicas_of.items()
        }
        #: local copies of the locally replicated variables
        self._values: Dict[VarId, Tuple[Any, Optional[WriteId]]] = {
            var: (BOTTOM, None)
            for var, reps in config.replicas_of.items()
            if config.site in reps
        }
        #: per-site write counter; doubles as the Opt-Track ``clock_i``
        self._wseq: int = 0
        self._fetch_seq: int = 0
        #: applies that overwrote a value *concurrent* with the incoming
        #: update (neither causally precedes the other) — the causal
        #: store's conflict rate.  Maintained by protocols whose stored
        #: metadata can decide concurrency (all but Ahamad).
        self.conflicts_detected: int = 0
        #: the observation seam (:mod:`repro.core.observe`), attached by
        #: the cluster or server; None = nothing attached.  Protocols emit
        #: *protocol-internal* events only, currently dependency-log
        #: prunes via ``obs.on_prune(site, condition, var, removed,
        #: by_sender, kept)``, and build the pre-prune snapshots that
        #: explain them only when ``obs.needs_reasons``.  Protocols are
        #: clockless: the subscribers stamp prunes with their bound clock.
        self.obs: Optional[Fanout] = None

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def replicas(self, var: VarId) -> Tuple[SiteId, ...]:
        try:
            return self.config.replicas_of[var]
        except KeyError:
            raise UnknownVariableError(var) from None

    def replica_mask(self, var: VarId) -> int:
        try:
            return self._replica_mask[var]
        except KeyError:
            raise UnknownVariableError(var) from None

    def locally_replicates(self, var: VarId) -> bool:
        return var in self._values

    def fetch_target(self, var: VarId, prefer: Optional[SiteId] = None) -> SiteId:
        """The predesignated site serving remote reads of ``var``.

        ``prefer`` (e.g. the topologically nearest replica, chosen by the
        simulation layer) is used when it actually replicates ``var``;
        otherwise the lowest-id replica is the deterministic default.
        """
        reps = self.replicas(var)
        if prefer is not None and prefer in reps:
            return prefer
        return reps[0]

    def next_fetch_id(self) -> int:
        self._fetch_seq += 1
        return self._fetch_seq

    # ------------------------------------------------------------------
    # local value store
    # ------------------------------------------------------------------
    def local_value(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        """Current local copy of ``var`` (value, producing write id)."""
        try:
            return self._values[var]
        except KeyError:
            raise UnknownVariableError(
                f"{var!r} is not replicated at site {self.site}"
            ) from None

    def _store_value(self, var: VarId, value: Any, write_id: WriteId) -> None:
        if var not in self._values:
            raise ProtocolInvariantError(
                f"site {self.site} asked to store non-local variable {var!r}"
            )
        self._values[var] = (value, write_id)

    def _next_write_id(self) -> WriteId:
        self._wseq += 1
        return WriteId(self.site, self._wseq)

    # ------------------------------------------------------------------
    # application operations (abstract)
    # ------------------------------------------------------------------
    @abstractmethod
    def write(self, var: VarId, value: Any) -> WriteResult:
        """Perform a write: update local state, return the update messages
        to multicast to the remote replicas of ``var``."""

    @abstractmethod
    def read_local(self, var: VarId) -> Tuple[Any, Optional[WriteId]]:
        """Read a locally replicated variable (merges its ``LastWriteOn``
        control data into the local causal state)."""

    def can_read_local(self, var: VarId) -> bool:
        """True when a local read of ``var`` is causally safe right now.

        Under partial replication a remote read can advance this site's
        causal past beyond its locally applied state: the fetched value may
        originate from writes whose updates to *this* site are still in
        flight.  A local read in that window can return a value the reader
        has causally overseen — a consistency violation (DESIGN.md §2a,
        completion 3a).  Partial-replication protocols therefore hold
        local reads until every causally known update destined here has
        been applied.  The simulation layer and the service poll this
        before serving a local read and block the reader while it is
        False.

        Full-replication protocols never block: their reads are always
        local, so the causal past can never outrun the applied state.
        """
        return True

    # ------------------------------------------------------------------
    # remote read path — default implementations raise for protocols that
    # never need them (full-replication protocols read locally always)
    # ------------------------------------------------------------------
    def make_fetch_request(self, var: VarId, server: SiteId) -> FetchRequest:
        raise ProtocolInvariantError(
            f"protocol {self.name!r} does not support remote reads"
        )

    def can_serve_fetch(self, req: FetchRequest) -> bool:
        """True when the serving site may answer the fetch: the
        requester's piggybacked dependencies are applied locally."""
        return True

    def serve_fetch(self, req: FetchRequest) -> FetchReply:
        raise ProtocolInvariantError(
            f"protocol {self.name!r} does not support remote reads"
        )

    def complete_remote_read(
        self, reply: FetchReply
    ) -> Tuple[Any, Optional[WriteId]]:
        raise ProtocolInvariantError(
            f"protocol {self.name!r} does not support remote reads"
        )

    def reply_is_fresh(self, reply: FetchReply) -> bool:
        """True when ``reply`` is causally safe to consume at this site.

        A fetch carries the requester's dependency summary and the server
        defers until it is applied (:meth:`can_serve_fetch`), which is
        enough in the simulator, where the requester's summary cannot grow
        while it blocks on the fetch.  On the service it can: every
        session of a site shares the site's log, so another session's read
        can import third-party dependency knowledge naming the server
        while this fetch is in flight, and the reply then holds a value
        the requester's own metadata proves causally overwritten
        (DESIGN.md §2a, completion 4).  The client layer calls this on every reply
        *before* :meth:`complete_remote_read`; a False result means the
        reply must be discarded — without merging its metadata — and the
        fetch re-issued (the missing updates are in flight to the server,
        so a bounded retry loop converges).

        Protocols compare the reply's ``applied`` snapshot (the server's
        apply progress at serve time) against their own dependency records
        naming the server.  The default accepts everything, which is
        correct for full-replication protocols (they never fetch
        remotely).
        """
        return True

    def stale_deps(self, reply: FetchReply) -> Any:
        """The ``deps`` of a re-fetch after ``reply`` failed
        :meth:`reply_is_fresh`: exactly the dependency records the
        reply's ``applied`` snapshot did not cover, in the shape
        :meth:`can_serve_fetch` tests.  A serving site that parks the
        re-fetch on them answers on the apply that satisfies them, so
        the requester need not poll.  A protocol that overrides
        :meth:`reply_is_fresh` overrides this with it; the default
        matches the default gate (nothing can be stale)."""
        return None

    # ------------------------------------------------------------------
    # update path (abstract)
    # ------------------------------------------------------------------
    @abstractmethod
    def can_apply(self, msg: UpdateMessage) -> bool:
        """Evaluate the activation predicate for a received update."""

    @abstractmethod
    def apply_update(self, msg: UpdateMessage) -> None:
        """Apply an activated update to the local replica."""

    # ------------------------------------------------------------------
    # dependency wake index (optional fast path)
    # ------------------------------------------------------------------
    # The simulation layer's drain loop used to re-evaluate every pending
    # predicate after every apply (a fixed-point rescan, O(pending) per
    # apply).  Protocols that can *explain* a False predicate as "waiting
    # for this site's apply progress w.r.t. sender z to reach clock c"
    # expose that explanation through these hooks, and the site indexes
    # each blocked item under one such (z, c) pair instead of rescanning.
    #
    # Contract for ``blocking_*``:
    #
    # * return ``()`` (any empty iterable) when the predicate is True now;
    # * return a non-empty iterable of ``(site, clock)`` pairs when it is
    #   False — the predicate cannot become True before
    #   ``apply_progress(site) >= clock`` holds for EVERY returned pair
    #   (so waking when any single pair is satisfied and re-evaluating is
    #   safe and misses nothing);
    # * return ``None`` when this protocol cannot index the predicate —
    #   the caller falls back to re-evaluating it every pass.
    #
    # The defaults delegate to the boolean predicates, i.e. "unindexable",
    # which keeps third-party protocols correct without changes.  A
    # subclass that overrides one of the boolean predicates must also
    # override the matching ``blocking_*`` hook whenever a *parent* class
    # indexed it — an inherited hook that disagrees with the new predicate
    # would park (or wake) items incorrectly.

    def blocking_deps(self, msg: UpdateMessage):
        """Dependencies blocking ``can_apply(msg)`` (see contract above)."""
        return () if self.can_apply(msg) else None

    def blocking_fetch_deps(self, req: FetchRequest):
        """Dependencies blocking ``can_serve_fetch(req)``."""
        return () if self.can_serve_fetch(req) else None

    def blocking_read_deps(self, var: VarId):
        """Dependencies blocking ``can_read_local(var)``."""
        return () if self.can_read_local(var) else None

    def apply_progress(self, z: SiteId) -> int:
        """Monotone per-origin apply progress used by the wake index.

        Must be comparable against the clocks returned by the
        ``blocking_*`` hooks: once ``apply_progress(z) >= c``, any blocked
        item whose sole remaining dependency was ``(z, c)`` must be
        re-evaluated.  Only required when a protocol overrides any
        ``blocking_*`` hook to return indexable pairs.
        """
        raise ProtocolInvariantError(
            f"protocol {self.name!r} does not expose apply progress"
        )

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def placement_changed(self, var: VarId) -> None:
        """Refresh every per-variable cache derived from the placement map.

        Epoch-based reconfiguration (:mod:`repro.ext.reconfig`) mutates the
        shared ``replicas_of`` mapping in place; protocols that precompute
        per-variable state from it must drop or rebuild that state here.
        Subclasses adding such a cache MUST override this (and call
        ``super().placement_changed(var)``) — a stale cache makes the next
        write advertise the old replica set while the transport already
        uses the new one, which deadlocks the new replica's activation
        predicate.
        """
        self._replica_mask[var] = bitsets.mask_of(self.config.replicas_of[var])

    def note_remote_apply(self, site: SiteId, upto_clock: int) -> None:
        """Out-of-band Condition-1 knowledge: ``site`` has **applied** this
        site's writes up to local write clock ``upto_clock``.

        The networked service calls this from the peer-link ack path (the
        ``ap`` applied watermark piggybacked on cumulative ``repl.ack``
        frames, see :mod:`repro.service.server`): receiving the ack is
        causally after the applies it reports, so any destination
        information those applies made redundant may be garbage-collected
        — protocols that track per-write destination sets bound their
        sender-side log growth by the in-flight window instead of the
        piggyback round-trip.  Must be safe to call with stale or repeated
        watermarks (acks are cumulative).  Default: no-op — protocols
        whose metadata carries no per-destination state have nothing to
        collect.
        """

    def note_remote_apply_log(self, site: SiteId, meta: Any) -> None:
        """Transitive companion to :meth:`note_remote_apply`: ``site``
        acked **applying** an update of ours whose piggybacked metadata
        was ``meta``.  Whatever causal obligations that metadata proves
        ``site`` has discharged (for Opt-Track: every log record naming
        it as a destination, by the activation predicate) may be
        garbage-collected.  Same safety contract as
        :meth:`note_remote_apply`; default: no-op.
        """

    # ------------------------------------------------------------------
    # durability (snapshot / restore)
    # ------------------------------------------------------------------
    # The service layer's stable-timestamp snapshots (repro.service.
    # durability) persist protocol state through these two hooks.  The
    # encoding contract: a snapshot is built from plain dicts, lists,
    # strings, ints, and the stored client values only — no numpy arrays,
    # no protocol objects — because it is serialized by whatever codec the
    # persistence layer chooses and ``core`` must not know about codecs
    # (the import-layering rule: core never imports service).  Dict keys
    # must be strings; integer-keyed maps are flattened to lists.
    # Subclasses extend the base dict via ``super().state_snapshot()`` /
    # ``super().state_restore(snap)``.

    def state_snapshot(self) -> Dict[str, Any]:
        """Capture this site's full protocol state as plain data.

        ``state_restore`` on a *freshly constructed* instance with the
        same configuration must reproduce the captured state exactly (up
        to internal caches that rebuild lazily).
        """
        return {
            "values": {
                var: [value, [wid.site, wid.seq] if wid is not None else None]
                for var, (value, wid) in self._values.items()
            },
            "wseq": self._wseq,
            "fseq": self._fetch_seq,
            "conf": self.conflicts_detected,
        }

    def state_restore(self, snap: Mapping[str, Any]) -> None:
        """Restore state captured by :meth:`state_snapshot`."""
        for var, (value, wid) in snap["values"].items():
            if var not in self._values:
                raise ProtocolInvariantError(
                    f"snapshot names variable {var!r} that site {self.site} "
                    f"does not replicate (placement changed under the "
                    f"snapshot?)"
                )
            self._values[var] = (
                value,
                WriteId(int(wid[0]), int(wid[1])) if wid is not None else None,
            )
        self._wseq = int(snap["wseq"])
        self._fetch_seq = int(snap["fseq"])
        self.conflicts_detected = int(snap["conf"])

    # ------------------------------------------------------------------
    # introspection / accounting
    # ------------------------------------------------------------------
    @abstractmethod
    def meta_objects(self) -> Iterable[Any]:
        """Yield every control-metadata object this site currently stores
        (clocks, logs, ``LastWriteOn`` entries, ``Apply`` arrays).  The
        metrics layer sizes them to measure the space complexity row of
        Table I."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} site={self.site} n={self.n}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, type[CausalProtocol]] = {}


def register_protocol(cls: type[CausalProtocol]) -> type[CausalProtocol]:
    """Class decorator: register a protocol under its ``name``."""
    key = cls.name
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ConfigurationError(f"protocol name {key!r} already registered")
    _REGISTRY[key] = cls
    return cls


def protocol_class(name: str) -> type[CausalProtocol]:
    """Look up a protocol class by registry name."""
    # Import side effect: make sure the built-in protocols are registered
    # even when the caller imported only repro.core.base.
    from repro.core import ahamad, full_track, opt_track, opt_track_crp, optp  # noqa: F401

    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownProtocolError(
            f"unknown protocol {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_protocols() -> list[str]:
    from repro.core import ahamad, full_track, opt_track, opt_track_crp, optp  # noqa: F401

    return sorted(_REGISTRY)

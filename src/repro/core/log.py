"""The Kshemkalyani–Singhal-style dependency log used by Opt-Track.

Paper Section III-B: each site keeps ``LOG = { <j, clock_j, Dests> }`` — one
record per write operation in the causal past whose destination information
is still (partially) relevant.  The log is piggybacked on outgoing update
messages and stored per variable in ``LastWriteOn``; redundant destination
information is pruned by the two KS optimality conditions:

* **Condition 1** — once update ``m`` is applied at site ``s``, the fact
  "``s`` is a destination of ``m``" is redundant in the causal future of the
  apply event.
* **Condition 2** — if ``send(m) ~>co send(m')`` and both updates are sent
  to site ``s``, then "``s`` is a destination of ``m``" is redundant in the
  causal future of applying ``m'``.

A record whose destination set has become empty is *not* dropped while it is
still the most recent record from its sender (paper Fig. 2): piggybacking
the empty record lets other sites prune their own copies.  ``PURGE``
(Algorithm 3) removes empty records that are not the newest per sender.

Representation: ``{(sender, clock): dests_bitmask}``.  Clocks are per-sender
write sequence numbers, so keys are unique and per-sender recency is just a
clock comparison.

Hot-path engineering (profile-driven, see docs/performance.md):

* **Copy-on-write**: ``copy()`` is O(1) — both logs share the underlying
  dicts until one of them mutates (``_own``).  ``LastWriteOn`` snapshots and
  the distributed-prune shared piggyback become free at write time.
* **Incremental per-sender ``latest`` cache**: every operation that used to
  recompute the per-sender newest-clock map (``purge``, ``copy_for_dest``,
  ``merge``) now reads ``_latest``, maintained in O(1) per mutation.  Every
  ``DepLog`` keeps the invariant that each sender in ``_latest`` still has
  its newest record present (PURGE/MERGE/copies all retain it).
* **Memoized accounting**: ``total_dests`` (and through it ``size_bytes``)
  caches its sum with dirty-bit invalidation, so the metrics layer does not
  re-walk a log per message — per-destination copies of one multicast share
  the cache through the snapshot they were built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core import bitsets


@dataclass(frozen=True, slots=True)
class LogEntry:
    """Read-only view of one log record (for tests and inspection)."""

    sender: int
    clock: int
    dests: tuple[int, ...]


def _latest_of(entries: Mapping[Tuple[int, int], int]) -> Dict[int, int]:
    """Per-sender newest clock over ``entries`` (the ``_latest`` cache)."""
    latest: Dict[int, int] = {}
    for s, c in entries:
        if c > latest.get(s, 0):
            latest[s] = c
    return latest


class DepLog:
    """A mutable KS-style dependency log with copy-on-write copies.

    The underlying mapping is ``{(sender, clock): dests_mask}``.  All
    mutating operations implement the exact steps of Algorithms 2 and 3.
    """

    __slots__ = ("entries", "_latest", "_dests", "_shared")

    def __init__(self, entries: Dict[Tuple[int, int], int] | None = None) -> None:
        self.entries: Dict[Tuple[int, int], int] = dict(entries) if entries else {}
        latest: Dict[int, int] = {}
        for (s, c) in self.entries:
            if c > latest.get(s, 0):
                latest[s] = c
        self._latest: Dict[int, int] = latest
        #: cached total_dests sum; None = dirty
        self._dests: Optional[int] = None
        #: True while ``entries``/``_latest`` may be shared with another log
        self._shared: bool = False

    @classmethod
    def _from_parts(
        cls,
        entries: Dict[Tuple[int, int], int],
        latest: Dict[int, int],
        dests: Optional[int] = None,
        shared: bool = False,
    ) -> "DepLog":
        """Internal constructor taking ownership of prebuilt dicts."""
        obj = cls.__new__(cls)
        obj.entries = entries
        obj._latest = latest
        obj._dests = dests
        obj._shared = shared
        return obj

    def _own(self) -> None:
        """Materialize private dicts before the first mutation (COW)."""
        if self._shared:
            self.entries = dict(self.entries)
            self._latest = dict(self._latest)
            self._shared = False

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        return iter(self.entries.items())

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self.entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DepLog):
            return NotImplemented
        return self.entries == other.entries

    def dests_of(self, sender: int, clock: int) -> int:
        """Destination bitmask of record ``(sender, clock)``.

        Raises ``KeyError`` if the record is absent.
        """
        return self.entries[(sender, clock)]

    def view(self) -> list[LogEntry]:
        """Sorted read-only snapshot (for tests and debugging)."""
        return [
            LogEntry(s, c, bitsets.to_sorted_tuple(d))
            for (s, c), d in sorted(self.entries.items())
        ]

    def copy(self) -> "DepLog":
        """O(1) copy-on-write copy: both logs share state until one
        mutates."""
        self._shared = True
        return DepLog._from_parts(
            self.entries, self._latest, self._dests, shared=True
        )

    # ------------------------------------------------------------------
    # Algorithm 2/3 operations
    # ------------------------------------------------------------------
    def add(self, sender: int, clock: int, dests_mask: int) -> None:
        """Insert a new record (Alg. 2 line 13 / line 28)."""
        self._own()
        self.entries[(sender, clock)] = dests_mask
        if clock > self._latest.get(sender, 0):
            self._latest[sender] = clock
        self._dests = None

    def latest_clock(self, sender: int) -> int:
        """Largest clock recorded for ``sender`` (0 if none); O(1)."""
        return self._latest.get(sender, 0)

    @property
    def latest_by_sender(self) -> Mapping[int, int]:
        """Per-sender newest clock map.  Treat as read-only."""
        return self._latest

    def prune_dests(self, mask: int) -> None:
        """Remove the sites in ``mask`` from every record's destination set
        (Alg. 2 lines 10-11, Condition 2 at the sender)."""
        hit = [(key, d & ~mask) for key, d in self.entries.items() if d & mask]
        if not hit:
            return
        self._own()
        entries = self.entries
        for key, pruned in hit:
            entries[key] = pruned
        self._dests = None

    def remove_site(self, site: int) -> None:
        """Remove one site from every record (Alg. 2 lines 29-30,
        Condition 1 at the receiver)."""
        self.prune_dests(bitsets.singleton(site))

    def purge(self) -> None:
        """PURGE (Alg. 3 lines 1-3): drop records with an empty destination
        set unless they are the most recent record from their sender."""
        latest = self._latest
        doomed = [
            key
            for key, d in self.entries.items()
            if d == bitsets.EMPTY and key[1] != latest[key[0]]
        ]
        if not doomed:
            return
        self._own()
        entries = self.entries
        for key in doomed:
            del entries[key]
        # every dropped record had an empty destination set, so the cached
        # total_dests sum is still exact — no invalidation needed

    def retire(self, mask: int) -> None:
        """``prune_dests(mask)`` followed by ``purge()``, in one pass over
        the log (the per-write Condition-2 + PURGE sequence, Alg. 2 lines
        10-12).  Rebuilds the record dict, so the copy-on-write ``_own``
        copy is folded in for free."""
        latest = self._latest
        out: Dict[Tuple[int, int], int] = {}
        for key, d in self.entries.items():
            nd = d & ~mask
            if nd != bitsets.EMPTY or key[1] == latest[key[0]]:
                out[key] = nd
        self.entries = out
        if self._shared:
            self._latest = dict(latest)
            self._shared = False
        self._dests = None

    def copy_for_dest(self, dest: int, replicas_mask: int) -> "DepLog":
        """Build the per-destination piggyback copy of this log
        (Alg. 2 lines 3-8).

        For the copy sent to site ``dest`` for a write whose replica set is
        ``replicas_mask``:

        * every record drops the sites in ``replicas_mask`` from its
          destination set (Condition 2: those sites receive the new update,
          which transitively guarantees the old one), **except** that
          ``dest`` itself is kept when present — the receiver needs it to
          enforce the activation predicate;
        * records left with an empty destination set are dropped unless
          they are the most recent from their sender (lines 7-8).
        """
        dest_bit = bitsets.singleton(dest)
        latest = self._latest
        out: Dict[Tuple[int, int], int] = {}
        for (s, c), d in self.entries.items():
            pruned = (d & ~replicas_mask) | (d & dest_bit)
            if pruned != bitsets.EMPTY or c == latest[s]:
                out[(s, c)] = pruned
        return DepLog._from_parts(out, dict(latest))

    def multicast_copies(
        self, dests: Iterable[int], replicas_mask: int
    ) -> List[Tuple[int, "DepLog"]]:
        """Per-destination piggyback copies for one multicast, sharing work.

        Returns ``[(dest, log), ...]`` in ``dests`` order, where each log
        equals ``copy_for_dest(dest, replicas_mask)``.  The
        destination-independent base (every record with ``replicas_mask``
        pruned, empties dropped per lines 7-8) is computed once;
        destinations whose copy coincides with it share one frozen snapshot
        object, and the others pay only for their own retained-dest
        overrides.
        """
        dests = list(dests)
        all_dests_mask = bitsets.mask_of(dests)
        latest = self._latest
        base: Dict[Tuple[int, int], int] = {}
        #: records naming at least one destination: original masks, needed
        #: to compute the per-destination "keep dest itself" exception
        naming: Dict[Tuple[int, int], int] = {}
        for key, d in self.entries.items():
            pruned = d & ~replicas_mask
            if pruned != bitsets.EMPTY or key[1] == latest[key[0]]:
                base[key] = pruned
            if d & all_dests_mask:
                naming[key] = d
        base_dests = 0
        for d in base.values():
            base_dests += d.bit_count()
        shared: Optional[DepLog] = None
        out: List[Tuple[int, DepLog]] = []
        for dest in dests:
            dest_bit = 1 << dest
            overrides = {
                key: base.get(key, bitsets.EMPTY) | dest_bit
                for key, d in naming.items()
                if d & dest_bit
            }
            if overrides:
                entries = dict(base)
                entries.update(overrides)
                # each override adds exactly the dest bit (it was pruned
                # from the base copy, or the record was dropped as empty);
                # the closed-form count only holds when dest was pruned
                count = (
                    base_dests + len(overrides)
                    if dest_bit & replicas_mask
                    else None
                )
                out.append(
                    (dest, DepLog._from_parts(entries, dict(latest), count))
                )
            else:
                if shared is None:
                    shared = DepLog._from_parts(
                        base, dict(latest), base_dests, shared=True
                    )
                out.append((dest, shared))
        return out

    def diff(
        self,
        base: "DepLog",
        base_order: Optional[List[Tuple[int, int]]] = None,
        order: Optional[List[Tuple[int, int]]] = None,
    ) -> Tuple[List[int], List[int], List[int]]:
        """Index-coded delta of this log relative to ``base``:
        ``(removed, updated, added)``.

        ``base``'s records in canonical (sorted-key) order form the index
        space: ``removed`` lists the positions of base records absent
        here; ``updated`` is a flat ``[position, dests, ...]`` pair list
        for records present in both whose destination mask changed;
        ``added`` is a flat sorted ``[sender, clock, dests, ...]`` triple
        list of records absent from ``base``.  A position is one small
        int where a ``(sender, clock)`` key is two, and both sides can
        rebuild the index space from the baseline alone, so the delta
        stays cheap even when most of the log churned.  Applying the
        delta to ``base`` (:meth:`apply_diff`) reconstructs this log
        exactly; all three lists are canonical, so equal logs always
        produce byte-identical wire encodings.  Read-only on both logs —
        no COW materialization.

        ``base_order`` / ``order`` are the sorted keys of ``base`` and of
        this log when the caller already holds them (a delta chain hands
        each log from "current" to "baseline" exactly once, so it sorts
        each once and passes the result back in); either is computed
        here when omitted.
        """
        entries = self.entries
        base_entries = base.entries
        if base_order is None:
            base_order = sorted(base_entries)
        removed: List[int] = []
        updated: List[int] = []
        for i, key in enumerate(base_order):
            d = entries.get(key)
            if d is None:
                removed.append(i)
            elif d != base_entries[key]:
                updated.append(i)
                updated.append(d)
        added: List[int] = []
        if len(entries) + len(removed) != len(base_entries):
            for key in sorted(entries) if order is None else order:
                if key not in base_entries:
                    added.append(key[0])
                    added.append(key[1])
                    added.append(entries[key])
        return removed, updated, added

    def apply_diff(
        self,
        removed: Sequence[int],
        updated: Sequence[int],
        added: Sequence[int],
        offset: int = 0,
    ) -> "DepLog":
        """Reconstruct the log that produced ``diff(self) == (removed,
        updated, added)``.

        Returns a **new** log; ``self`` (the baseline) is untouched, so a
        receiver can keep chaining deltas against the logs it decodes
        without defensive copies.  ``offset`` is added to the clock of
        every ``added`` record (the wire ships those relative to the
        message clock).  Raises ``IndexError``/``KeyError`` on positions
        outside the baseline — the wire layer turns that into a
        :class:`~repro.errors.WireError`.
        """
        order = sorted(self.entries)
        entries = dict(self.entries)
        for i in removed:
            del entries[order[i]]
        for i in range(0, len(updated), 2):
            entries[order[updated[i]]] = updated[i + 1]
        # the per-sender latest cache follows the diff: an addition can
        # only raise its sender's newest clock, and a removal matters
        # only when it took a sender's newest record with nothing newer
        # added — rare (PURGE retains the newest), so that case alone
        # pays for the full rebuild
        latest = dict(self._latest)
        for i in range(0, len(added), 3):
            s = added[i]
            c = added[i + 1] + offset
            entries[(s, c)] = added[i + 2]
            if c > latest.get(s, 0):
                latest[s] = c
        for i in removed:
            key = order[i]
            if latest.get(key[0]) == key[1] and key not in entries:
                latest = _latest_of(entries)
                break
        return DepLog._from_parts(entries, latest)

    @classmethod
    def from_flat(
        cls,
        triples: Sequence[int],
        pairs: Sequence[int] = (),
        offset: int = 0,
    ) -> "DepLog":
        """The log a flat wire encoding spells: ``[sender, clock, dests,
        ...]`` triples plus ``[sender, clock, ...]`` pairs of
        empty-destination records, every clock shifted by ``offset`` (the
        lean encodings ship clocks relative to the message clock)."""
        entries: Dict[Tuple[int, int], int] = {}
        latest: Dict[int, int] = {}
        for i in range(0, len(triples), 3):
            s = triples[i]
            c = triples[i + 1] + offset
            entries[(s, c)] = triples[i + 2]
            if c > latest.get(s, 0):
                latest[s] = c
        for i in range(0, len(pairs), 2):
            s = pairs[i]
            c = pairs[i + 1] + offset
            entries[(s, c)] = 0
            if c > latest.get(s, 0):
                latest[s] = c
        return cls._from_parts(entries, latest)

    def prune_known(self, known: Sequence[Sequence[int]]) -> None:
        """Condition 1 against a table of proven applies: ``known[d][z]``
        is a lower bound on ``Apply_d[z]`` (site ``d`` has applied sender
        ``z``'s writes up to that clock).  Clears ``d`` from every record
        ``<z, c <= known[d][z]>`` and purges records it empties (unless
        newest of their sender — the PURGE retention rule).

        The table is how the service layer's ack-driven GC generalizes
        :meth:`prune_sender_upto` beyond the acking link's own writes:
        an *applied* ack for an update proves (via the activation
        predicate) that the acker applied every record the update's
        piggybacked log named it in, and per-sender apply order is
        FIFO, so the knowledge compresses to one clock per (site,
        sender) pair.
        """
        hit = []
        for (z, c), d in self.entries.items():
            nd = d
            for s in bitsets.iter_sites(d):
                if known[s][z] >= c:
                    nd &= ~(1 << s)
            if nd != d:
                hit.append(((z, c), nd))
        if not hit:
            return
        self._own()
        entries = self.entries
        latest = self._latest
        for key, pruned in hit:
            if pruned == bitsets.EMPTY and key[1] != latest[key[0]]:
                del entries[key]
            else:
                entries[key] = pruned
        self._dests = None

    def prune_sender_upto(self, sender: int, upto_clock: int, mask: int) -> None:
        """Clear the ``mask`` destination bits from ``sender``'s records
        with ``clock <= upto_clock``, purging records it empties (unless
        newest of their sender — the PURGE retention rule).

        This is Condition 1 applied *out of band*: the service layer
        learns through cumulative link acks that the masked sites applied
        ``sender``'s writes up to ``upto_clock``, without waiting for the
        knowledge to round-trip through piggybacked logs.
        """
        hit = [
            (key, d & ~mask)
            for key, d in self.entries.items()
            if key[0] == sender and key[1] <= upto_clock and d & mask
        ]
        if not hit:
            return
        self._own()
        entries = self.entries
        latest = self._latest
        for key, pruned in hit:
            if pruned == bitsets.EMPTY and key[1] != latest[key[0]]:
                del entries[key]
            else:
                entries[key] = pruned
        self._dests = None

    def merge(self, incoming: "DepLog") -> None:
        """MERGE (Alg. 3 lines 4-11): fold a piggybacked log into this one.

        For records of the same sender:

        * an incoming record older than some local record from the same
          sender, with no equal-clock local record, is discarded — its
          absence locally plus the presence of a newer record means it was
          already fully pruned ("implicitly remembered as delivered");
        * symmetrically, a local record older than some incoming record,
          with no equal-clock incoming record, is deleted;
        * equal-clock records merge by **intersecting** destination sets:
          a site absent from either side is known-redundant.

        Remaining incoming records are inserted.
        """
        if not incoming.entries:
            return
        self._own()
        local = self.entries
        local_latest = self._latest
        in_entries = incoming.entries
        in_latest = incoming._latest

        # Local records made redundant by a strictly newer incoming record.
        doomed_local = [
            key
            for key in local
            if key[1] < in_latest.get(key[0], 0) and key not in in_entries
        ]
        for key in doomed_local:
            del local[key]

        for key, d_in in in_entries.items():
            if key in local:
                local[key] = local[key] & d_in
            elif key[1] < local_latest.get(key[0], 0):
                # Incoming record older than a local record from the same
                # sender and absent locally: already implicitly remembered.
                continue
            else:
                local[key] = d_in
        # fold the incoming newest-clock knowledge into the cache (done
        # after the loops: they must see the pre-merge local latest map)
        for s, c in in_latest.items():
            if c > local_latest.get(s, 0):
                local_latest[s] = c
        self._dests = None

    def absorb(self, incoming: "DepLog") -> None:
        """``merge(incoming)`` followed by ``purge()``, in one pass (the
        per-read sequence, Alg. 2 lines 20-22).

        Precondition: ``self`` is already purged — true at every call
        site, because every mutating operation on a protocol's ``LOG``
        ends purged (``retire`` after a write, ``absorb`` after a read).
        Then only records the merge touches can need purging: a
        pre-existing empty record is the latest of its sender, and if the
        merge outdates it, it is either intersected (handled inline) or
        deleted by the newer-incoming-record rule.
        """
        if not incoming.entries:
            return
        self._own()
        local = self.entries
        local_latest = self._latest
        in_entries = incoming.entries
        in_latest = incoming._latest

        doomed_local = [
            key
            for key in local
            if key[1] < in_latest.get(key[0], 0) and key not in in_entries
        ]
        for key in doomed_local:
            del local[key]

        for key, d_in in in_entries.items():
            s, c = key
            if key in local:
                nd = local[key] & d_in
                if nd == bitsets.EMPTY and c != max(
                    local_latest.get(s, 0), in_latest.get(s, 0)
                ):
                    del local[key]  # empty and outdated: purge inline
                else:
                    local[key] = nd
            elif c < local_latest.get(s, 0):
                continue  # implicitly remembered as delivered
            elif d_in != bitsets.EMPTY or c == max(
                local_latest.get(s, 0), in_latest.get(s, 0)
            ):
                local[key] = d_in
        for s, c in in_latest.items():
            if c > local_latest.get(s, 0):
                local_latest[s] = c
        self._dests = None

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def total_dests(self) -> int:
        """Sum of destination-set cardinalities over all records
        (memoized; invalidated by mutation)."""
        total = self._dests
        if total is None:
            total = 0
            for d in self.entries.values():
                total += d.bit_count()
            self._dests = total
        return total

    def size_bytes(self, id_bytes: int = 4, clock_bytes: int = 8) -> int:
        """Serialized size: per record, a sender id + clock + dest ids.

        Hot path: charged per message by the metrics layer — served from
        the memoized destination count plus an O(1) record count.
        """
        return (
            len(self.entries) * (id_bytes + clock_bytes)
            + self.total_dests() * id_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(
            f"<{s},{c},{{{','.join(map(str, bitsets.iter_sites(d)))}}}>"
            for (s, c), d in sorted(self.entries.items())
        )
        return f"DepLog({items})"

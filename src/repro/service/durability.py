"""Per-site durability: write-ahead log + stable-timestamp snapshots.

This module is the *audited seam* for file I/O in ``repro.service`` — the
``durability-io`` lint rule bans raw ``open``/``os.fsync`` everywhere else
in the package, so every blocking filesystem call the live service makes
is reviewable in one place.

Design (docs/durability.md has the full walkthrough):

* **WAL records** are ordinary wire frames: a record on disk is
  ``crc32(payload) . payload`` where ``payload`` is the v3 binary codec's
  length-prefixed encoding of the frame (:data:`repro.service.wire.BINARY_CODEC`).
  The ``wal.*`` frame kinds live in the same append-only type registry as
  the connection frames but never cross a socket — they are file-format
  constants.
* **Torn tails vs corruption**: a record whose bytes run out before the
  declared length is a *torn tail* — the expected artifact of a crash mid
  ``write(2)`` — and is silently truncated, but only at the physical end
  of the **last** segment.  A record that is complete but fails its CRC
  (or any trailing bytes on a non-final segment) is *corruption* and
  recovery refuses to proceed: :class:`WalCorruptionError` names the file
  and byte offset so the operator can decide what to salvage.  Both rules
  live in :class:`RecordReader`, which every read of a segment or the
  snapshot goes through, one record in memory at a time: recovery scans
  the log at open and then streams it into replay, never holding it
  whole.
* **Segments and retirement**: the log is a sequence of numbered segment
  files ``wal.NNNNNN``.  A snapshot atomically covers a *segment prefix*:
  the writer rotates to a fresh segment (synchronous, single-writer), the
  snapshot is committed off-loop (tmp + fsync + rename), and only then
  are the covered segments unlinked.  The committed snapshot frame
  records the highest covered segment index, so a crash anywhere in that
  window is safe: either the old snapshot is still current and *all*
  segments replay, or the new one is current and the covered segments are
  ignored (and lazily deleted) even if the unlink never ran.  Retirement
  can therefore never drop an un-snapshotted record.
* **Group fsync**: appends ``write``+``flush`` synchronously — an
  in-process kill (the chaos ``kill`` frame, a cancelled task) loses
  nothing because the bytes are in the OS page cache before the append
  call returns.  ``fsync`` — which only matters for whole-machine power
  loss — is batched by one group-commit thread per process
  (:class:`_GroupSyncer`), which serves every open ``fsync="group"``
  WAL once per window.  The event loop only sets a flag per append and
  hands a WAL to the thread when it goes from clean to dirty: it never
  blocks on the disk and nothing travels back to it.  The torn-tail
  rule above covers whatever the batching window exposes.
* **Open on acceptance**: constructing a :class:`SiteWal` recovers
  but starts no new life.  The incarnation bump and the fresh segment
  wait for :meth:`SiteWal.open`, which the server calls once recovery
  has accepted the log, so a refused recovery leaves the segment list
  and the incarnation as it found them.

The stable-timestamp rationale — why a snapshot keyed by the per-origin
apply watermarks is sufficient — follows *Global Stabilization for
Causally Consistent Partial Replication* (Xiang & Vaidya); see
docs/durability.md.
"""

from __future__ import annotations

import asyncio
import io
import os
import threading
import weakref
import zlib
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.errors import ServiceError, WireError
from repro.service import wire

__all__ = [
    "WalCorruptionError",
    "SiteWal",
    "encode_record",
    "encode_raw_record",
    "RecordReader",
    "decode_records",
    "FSYNC_MODES",
]

#: supported ``fsync`` policies: ``"group"`` batches fsyncs on the
#: group-commit thread (the default), ``"none"`` never fsyncs (bench
#: mode — an in-process kill is still lossless, only power loss is not)
FSYNC_MODES = ("group", "none")

_CRC_BYTES = 4
_SNAP_NAME = "snap.bin"
_INCARNATION_NAME = "incarnation"
_SEGMENT_PREFIX = "wal."

#: delay between the append that dirties a WAL and the batched fsync
#: that covers it; every append inside one window, to every WAL of the
#: process, shares one pass of the group-commit thread
DEFAULT_FSYNC_INTERVAL = 0.002


class WalCorruptionError(ServiceError):
    """A complete WAL record failed its integrity check.

    Raised only for *corruption* (bad CRC, trailing garbage on a
    non-final segment, an unreadable snapshot) — never for the torn tail
    a crash legitimately leaves, which recovery truncates silently.
    """


def _guard(payload: bytes) -> bytes:
    """A length-prefixed frame as a CRC-guarded WAL record."""
    return zlib.crc32(payload).to_bytes(_CRC_BYTES, "big") + payload


def encode_record(frame: Dict[str, Any]) -> bytes:
    """Encode one frame as a CRC-guarded WAL record."""
    return _guard(wire.BINARY_CODEC.encode(frame))


def encode_raw_record(body: bytes) -> bytes:
    """Wrap an already-encoded frame body (the bytes after a frame's
    length prefix, exactly as they crossed the wire) as a CRC-guarded
    WAL record.  :func:`decode_records` sniffs the codec per record, so
    raw bodies of either codec interleave freely with
    :func:`encode_record` output in one segment."""
    return _guard(len(body).to_bytes(4, "big") + body)


class RecordReader:
    """The records of one byte stream, read one at a time.

    ``f`` is a binary file object (a segment, the snapshot, a
    ``BytesIO``); at most one record's bytes are held at once.  The
    torn-tail and corruption rules live here and nowhere else:

    * a record whose header or body runs past the end of the stream is a
      torn tail — iteration stops there and :attr:`valid` is the offset
      of its first byte (the stream's length when it is whole);
    * a complete record whose CRC fails raises :class:`WalCorruptionError`
      naming ``source`` and the record's offset, as does a record that
      passes its CRC but does not decode (iterating frames only);
    * with ``allow_torn_tail`` false (a non-final segment) any bytes past
      the last whole record raise :class:`WalCorruptionError` instead.

    :meth:`payloads` is the CRC-and-framing pass (no decoding), iterating
    the reader itself yields decoded frames.
    """

    def __init__(
        self, f: BinaryIO, *, source: str = "<wal>", allow_torn_tail: bool = True
    ) -> None:
        self._f = f
        self.source = source
        self.allow_torn_tail = allow_torn_tail
        #: offset just past the last whole record read so far
        self.valid = 0

    def payloads(self) -> Iterator[Tuple[int, bytes]]:
        """``(offset, frame body)`` per whole, CRC-checked record."""
        f = self._f
        head_len = _CRC_BYTES + 4
        while True:
            head = f.read(head_len)
            if len(head) < head_len:
                if head:
                    self._torn()  # not even a crc + length prefix
                return
            try:
                body_len = wire.frame_length(head[_CRC_BYTES:])
            except WireError:
                # a partially-written length prefix is indistinguishable
                # from any other torn bytes
                self._torn()
                return
            body = f.read(body_len)
            if len(body) < body_len:
                self._torn()  # body runs past EOF
                return
            off = self.valid
            crc = int.from_bytes(head[:_CRC_BYTES], "big")
            got = zlib.crc32(body, zlib.crc32(head[_CRC_BYTES:]))
            if got != crc:
                raise WalCorruptionError(
                    f"WAL corruption in {self.source} at byte {off}: record "
                    f"CRC mismatch (expected {crc:#010x}, got {got:#010x}); "
                    f"refusing to recover past it"
                )
            self.valid = off + head_len + body_len
            yield off, body

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for off, body in self.payloads():
            try:
                frame = wire.decode_body(body)
            except WireError as exc:
                raise WalCorruptionError(
                    f"WAL corruption in {self.source} at byte {off}: record "
                    f"passed its CRC but failed to decode: {exc}"
                ) from None
            yield frame

    def _torn(self) -> None:
        """The bytes past :attr:`valid` are no whole record: a torn tail
        where one is allowed, corruption anywhere else."""
        if self.allow_torn_tail:
            return
        trailing = self._f.seek(0, os.SEEK_END) - self.valid
        raise WalCorruptionError(
            f"WAL corruption in {self.source} at byte {self.valid}: "
            f"{trailing} trailing byte(s) on a non-final segment (torn "
            f"tails are only legal at the end of the log)"
        )


def decode_records(
    data: bytes, *, source: str = "<wal>", allow_torn_tail: bool = True
) -> Tuple[List[Dict[str, Any]], int]:
    """Decode a whole byte string with :class:`RecordReader`.

    Returns ``(frames, valid_length)`` where ``valid_length`` is the byte
    offset of the first torn record (== ``len(data)`` when clean).
    """
    reader = RecordReader(
        io.BytesIO(data), source=source, allow_torn_tail=allow_torn_tail
    )
    frames = list(reader)
    return frames, reader.valid


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` durably: tmp + fsync + rename + dir fsync."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_path(os.path.dirname(path) or ".")


def _segment_index(name: str) -> Optional[int]:
    if not name.startswith(_SEGMENT_PREFIX):
        return None
    try:
        return int(name[len(_SEGMENT_PREFIX) :])
    except ValueError:
        return None


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:06d}"


def _read_dir(
    data_dir: str,
) -> Tuple[int, Optional[Dict[str, Any]], List[Tuple[int, str]]]:
    """Read ``(incarnation, snapshot_frame, sorted segment list)``."""
    incarnation = 0
    inc_path = os.path.join(data_dir, _INCARNATION_NAME)
    if os.path.exists(inc_path):
        with open(inc_path, "r", encoding="utf-8") as f:
            text = f.read().strip()
        try:
            incarnation = int(text)
        except ValueError:
            raise WalCorruptionError(
                f"unreadable incarnation file {inc_path}: {text!r}"
            ) from None
    snapshot: Optional[Dict[str, Any]] = None
    snap_path = os.path.join(data_dir, _SNAP_NAME)
    if os.path.exists(snap_path):
        with open(snap_path, "rb") as f:
            reader = RecordReader(f, source=snap_path)
            frames = list(reader)
            trailing = f.seek(0, os.SEEK_END) - reader.valid
        if trailing or len(frames) != 1:
            raise WalCorruptionError(
                f"unreadable snapshot {snap_path}: expected exactly one "
                f"whole record, got {len(frames)} record(s) and "
                f"{trailing} trailing byte(s)"
            )
        snapshot = frames[0]
    segments = sorted(
        (idx, name)
        for name in os.listdir(data_dir)
        if (idx := _segment_index(name)) is not None
    )
    return incarnation, snapshot, segments


class _GroupSyncer:
    """The process's one group-commit thread, shared by every open
    ``fsync="group"`` WAL.

    An append that finds its WAL clean hands the WAL over (:meth:`mark`).
    The thread sleeps until the first hand-over, waits out one group
    window so that every append in it shares a flush, then fsyncs each
    handed-over WAL's open segment (:meth:`SiteWal._group_sync`).  The
    appending thread only sets a flag and, once per window per WAL,
    takes :attr:`lock`; nothing is reported back to it.  The thread
    holds the WALs weakly, so a dropped WAL is not kept alive, and it
    starts on the first hand-over: an idle process has no thread and no
    wake-ups.
    """

    def __init__(self) -> None:
        #: guards the hand-over list and every group WAL's segment
        #: handle: the thread dups a WAL's fd under it, rotation and
        #: close swap or retire the handle under it
        self.lock = threading.Lock()
        self._wake = threading.Event()
        #: never set: its timed wait is the group window
        self._window = threading.Event()
        self._pending: List["weakref.ReferenceType[SiteWal]"] = []
        self._thread: Optional[threading.Thread] = None

    def mark(self, wal: "SiteWal") -> None:
        """Have ``wal``'s open segment fsynced at the end of the window."""
        with self.lock:
            self._pending.append(weakref.ref(wal))
            self._wake.set()
            thread = self._thread
            if thread is None or not thread.is_alive():
                thread = self._thread = threading.Thread(
                    target=self._run, name="wal-group-fsync", daemon=True
                )
                thread.start()

    def _run(self) -> None:
        while True:
            self._wake.wait()
            # group: every append landing in this window shares one flush
            self._window.wait(DEFAULT_FSYNC_INTERVAL)
            with self.lock:
                self._wake.clear()
                batch, self._pending = self._pending, []
            self._serve(batch)

    @staticmethod
    def _serve(batch: List["weakref.ReferenceType[SiteWal]"]) -> None:
        # a frame of its own, so no WAL outlives the pass in a local
        for ref in batch:
            wal = ref()
            if wal is not None:
                wal._group_sync()


_SYNCER = _GroupSyncer()
# a forked child inherits neither the thread nor a usable lock (the
# thread may have held it at the fork): start the child from scratch
os.register_at_fork(after_in_child=_SYNCER.__init__)


class SiteWal:
    """One site's durable state: incarnation + snapshot + WAL segments.

    Constructing a ``SiteWal`` *recovers*: it loads the committed
    snapshot if any, scans every uncovered segment (refusing
    corruption, truncating a torn tail on the last one) and unlinks the
    segments the snapshot covers — the repairs any later recovery would
    make the same way.  It starts no new life: :attr:`incarnation` is
    the one this life will run as, and :meth:`open` bumps the
    incarnation file durably and opens a fresh segment.  The server
    replays :attr:`snapshot` and then :meth:`frames`, which reads the
    scanned segments back one record at a time (the log is never held
    in memory whole), and calls :meth:`open` only once it has accepted
    them.  The first append, rotation or :meth:`close` of a WAL nobody
    opened opens it.
    """

    def __init__(self, data_dir: str, *, fsync: str = "group") -> None:
        if fsync not in FSYNC_MODES:
            raise ServiceError(
                f"unknown fsync mode {fsync!r} (choose from {FSYNC_MODES})"
            )
        self.data_dir = data_dir
        self.fsync_mode = fsync
        os.makedirs(data_dir, exist_ok=True)

        prev, snapshot, segments = _read_dir(data_dir)
        #: strictly monotone across restarts (durable from :meth:`open`
        #: on); the server reports it as its ``epoch``
        self.incarnation = prev + 1

        #: the committed ``snap`` frame, or None on first boot
        self.snapshot = snapshot
        covered = int(snapshot.get("seg", 0)) if snapshot else 0
        #: the uncovered segments, oldest first: what :meth:`frames`
        #: replays.  Each is scanned here (CRC and framing, no decoding,
        #: one record in memory at a time) so that corruption refuses
        #: and a torn tail is truncated before the first append.
        self._live = [
            os.path.join(data_dir, name) for idx, name in segments if idx > covered
        ]
        for pos, path in enumerate(self._live):
            last = pos == len(self._live) - 1
            with open(path, "rb") as f:
                reader = RecordReader(f, source=path, allow_torn_tail=last)
                for _ in reader.payloads():
                    pass
                torn = f.seek(0, os.SEEK_END) != reader.valid
            if torn:
                # torn tail on the final segment: truncate to the last
                # whole record so the next recovery sees a clean log
                with open(path, "r+b") as f:
                    f.truncate(reader.valid)
                    f.flush()
                    os.fsync(f.fileno())
        # segments the committed snapshot covers are dead even if the
        # crash preempted their unlink — finish the retirement lazily
        for idx, name in segments:
            if idx <= covered:
                os.unlink(os.path.join(data_dir, name))

        self._seg_index = (segments[-1][0] if segments else 0) + 1
        #: the open segment; None until :meth:`open`
        self._f: Optional[BinaryIO] = None
        self._closed = False
        #: appended since the group-commit thread last took this WAL
        #: (written by both threads; see :meth:`_group_sync`)
        self._dirty = False
        #: counters for the server's metrics plane
        self.records_appended = 0
        self.bytes_appended = 0
        self.raw_appends = 0
        self.snapshots = 0
        #: group fsyncs that failed (the group-commit thread's count).
        #: Once non-zero, records of this WAL may not survive power
        #: loss, whatever later fsyncs report.
        self.sync_errors = 0
        #: fsyncs the group-commit thread made.  One count per thread,
        #: so neither loses the other's increments: this one, and the
        #: owner's (:meth:`sync`, rotation, :meth:`close`)
        self.group_fsyncs = 0
        self._owner_fsyncs = 0

    @property
    def fsyncs(self) -> int:
        """Successful fsyncs of this WAL's segments, from either thread."""
        return self._owner_fsyncs + self.group_fsyncs

    def frames(self) -> Iterator[Dict[str, Any]]:
        """The uncovered WAL frames in append order, decoded one record
        at a time — the suffix recovery replays after :attr:`snapshot`.
        Records this incarnation appends are not among them; read them
        before the first snapshot retires the segments they sit in."""
        return _frames_of(self._live)

    def open(self) -> None:
        """Start this incarnation on disk: bump the incarnation file
        (durably, before anything else — a site must never reuse a dead
        epoch) and open a fresh segment for appends.  A no-op once open
        or closed."""
        if self._f is not None or self._closed:
            return
        _atomic_write(
            os.path.join(self.data_dir, _INCARNATION_NAME),
            f"{self.incarnation}\n".encode("utf-8"),
        )
        self._f = open(
            os.path.join(self.data_dir, _segment_name(self._seg_index)), "ab"
        )

    # -- appends --------------------------------------------------------

    def append(self, frame: Any) -> None:
        """Append one frame record (write + flush; fsync is batched).

        ``frame`` is a frame dict, or the frame already encoded by one
        of :data:`wire.BINARY_CODEC`'s ``pack_wal_*`` encoders (length
        prefix included) — the same record bytes either way.

        Synchronous by design: called between awaits on the single-writer
        loop, so the record hits the OS page cache before the protocol
        mutation it logs becomes visible to any other task.
        """
        if self._closed:
            return
        self._write_record(
            _guard(frame) if type(frame) is bytes else encode_record(frame)
        )

    def append_raw(self, body: bytes) -> None:
        """Append one record from already-encoded wire bytes.

        The fast path for replicated updates: the receiver logs the
        frame body exactly as it came off the wire, skipping the
        re-encode that dominates :meth:`append`'s CPU cost.  Callers
        must pass only *self-contained* bodies (plain ``repl`` /
        ``repl.t`` with an un-interned variable name) — a WAL record
        has to decode with no connection state, exactly like
        :meth:`append` output.  On replay such a record surfaces with
        its on-wire type; the server treats a plain repl kind in the
        log as ``wal.repl``.
        """
        if self._closed:
            return
        self._write_record(encode_raw_record(body))
        self.raw_appends += 1

    def _write_record(self, rec: bytes) -> None:
        if self._f is None:
            self.open()
        f = self._f
        f.write(rec)
        f.flush()
        self.records_appended += 1
        self.bytes_appended += len(rec)
        # the write is in before the flag is read: if the group-commit
        # thread has already taken this WAL, its fsync starts after the
        # flag was cleared and so after this write, or this append sees
        # the flag clear and hands the WAL over again
        if self.fsync_mode == "group" and not self._dirty:
            self._dirty = True
            _SYNCER.mark(self)

    def _group_sync(self) -> None:
        """One group fsync of the open segment, on the group-commit
        thread.  The flag clears before the fsync, so an append that
        lands meanwhile hands the WAL over for the next window.  The
        fsync goes through a dup of the segment's fd, taken under the
        lock, so a concurrent rotation or close cannot pull it away.  A
        failure is counted in :attr:`sync_errors` and retried next
        window; the thread goes on serving the other WALs."""
        try:
            with _SYNCER.lock:
                if self._closed or self._f is None:
                    return
                self._dirty = False
                fd = os.dup(self._f.fileno())
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            self.sync_errors += 1
            if not self._dirty:
                self._dirty = True
                _SYNCER.mark(self)
            return
        self.group_fsyncs += 1

    async def sync(self) -> None:
        """Force one immediate off-loop fsync of the open segment."""
        f = self._f
        if self._closed or f is None:
            return
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, os.fsync, f.fileno())
        self._owner_fsyncs += 1

    # -- snapshots ------------------------------------------------------

    def begin_snapshot(self) -> int:
        """Rotate to a fresh segment; returns the covered segment index.

        Synchronous: the caller captures protocol state and calls this in
        the same no-await block, so the rotation point and the captured
        state agree exactly.  Under group fsync the retiring segment's
        unsynced window is fsynced here, inline: until the snapshot
        commits, that segment is the only copy of its records, and the
        group-commit thread only ever sees the open segment.  Rotation
        is rare (once per snapshot).
        """
        self.open()
        old = self._f
        covered = self._seg_index
        self._seg_index += 1
        new = open(
            os.path.join(self.data_dir, _segment_name(self._seg_index)), "ab"
        )
        with _SYNCER.lock:
            self._f = new
            # set: appends to the old segment that no group fsync took
            unsynced = self._dirty
        if self.fsync_mode == "group" and unsynced:
            os.fsync(old.fileno())
            self._owner_fsyncs += 1
        old.close()
        return covered

    async def commit_snapshot(self, frame: Dict[str, Any], covered: int) -> None:
        """Durably commit a snapshot, then retire the segments it covers.

        Runs off-loop.  Ordering is the whole story: the snapshot (with
        its ``seg`` watermark) is fsynced and renamed into place *before*
        any covered segment is unlinked, so a crash at any point leaves
        either the old snapshot + all segments or the new snapshot (which
        ignores the covered ones).
        """
        frame = dict(frame)
        frame["seg"] = covered
        data = encode_record(frame)
        loop = asyncio.get_event_loop()
        snap_path = os.path.join(self.data_dir, _SNAP_NAME)
        await loop.run_in_executor(None, _atomic_write, snap_path, data)

        def _retire() -> None:
            for name in os.listdir(self.data_dir):
                idx = _segment_index(name)
                if idx is not None and idx <= covered:
                    os.unlink(os.path.join(self.data_dir, name))

        await loop.run_in_executor(None, _retire)
        self.snapshots += 1

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Flush, final-fsync, and close the open segment.  A WAL nobody
        opened is opened first: closing it spends its incarnation."""
        if self._closed:
            return
        self.open()
        f = self._f
        with _SYNCER.lock:
            # the group-commit thread dups no fd of a closed WAL
            self._closed = True
        f.flush()
        if self.fsync_mode == "group":
            os.fsync(f.fileno())
            self._owner_fsyncs += 1
        f.close()

    # -- offline inspection ---------------------------------------------

    @staticmethod
    def inspect(data_dir: str) -> Dict[str, Any]:
        """Read-only view of a data dir (no incarnation bump, no locks).

        Used by ``repro-kv recover`` to answer "what would a restart
        replay?" without perturbing the site's durable state: the
        uncovered records are counted by kind (``kinds``), decoded one
        at a time and not kept.
        """
        incarnation, snapshot, segments = _read_dir(data_dir)
        covered = int(snapshot.get("seg", 0)) if snapshot else 0
        live = [
            os.path.join(data_dir, name) for idx, name in segments if idx > covered
        ]
        kinds: Dict[str, int] = {}
        for frame in _frames_of(live):
            kinds[frame["t"]] = kinds.get(frame["t"], 0) + 1
        return {
            "incarnation": incarnation,
            "snapshot": snapshot,
            "segments": [name for _, name in segments],
            "covered_segment": covered,
            "kinds": kinds,
        }


def _frames_of(paths: List[str]) -> Iterator[Dict[str, Any]]:
    """The frames of a segment sequence; only the last may be torn."""
    for pos, path in enumerate(paths):
        with open(path, "rb") as f:
            yield from RecordReader(
                f, source=path, allow_torn_tail=pos == len(paths) - 1
            )

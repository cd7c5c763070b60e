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
  and byte offset so the operator can decide what to salvage.
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
  loss — is batched by a background task through
  ``loop.run_in_executor``, so the single-writer event loop never blocks
  on the disk.  The torn-tail rule above covers whatever the batching
  window exposes.

The stable-timestamp rationale — why a snapshot keyed by the per-origin
apply watermarks is sufficient — follows *Global Stabilization for
Causally Consistent Partial Replication* (Xiang & Vaidya); see
docs/durability.md.
"""

from __future__ import annotations

import asyncio
import os
import zlib
from typing import Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.errors import ServiceError, WireError
from repro.service import wire

__all__ = [
    "WalCorruptionError",
    "SiteWal",
    "encode_record",
    "encode_raw_record",
    "decode_records",
    "FSYNC_MODES",
]

#: supported ``fsync`` policies: ``"group"`` batches fsyncs off-loop (the
#: default), ``"none"`` never fsyncs (bench mode — an in-process kill is
#: still lossless, only power loss is not)
FSYNC_MODES = ("group", "none")

_CRC_BYTES = 4
_SNAP_NAME = "snap.bin"
_INCARNATION_NAME = "incarnation"
_SEGMENT_PREFIX = "wal."

#: delay between an append and the batched fsync that covers it; every
#: append inside one window shares a single disk flush
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


def decode_records(
    data: bytes, *, source: str = "<wal>", allow_torn_tail: bool = True
) -> Tuple[List[Dict[str, Any]], int]:
    """Decode a segment's bytes into frames.

    Returns ``(frames, valid_length)`` where ``valid_length`` is the byte
    offset of the first torn record (== ``len(data)`` when the segment is
    clean).  A complete-but-corrupt record raises
    :class:`WalCorruptionError`; so does a torn tail when
    ``allow_torn_tail`` is false (non-final segments must be whole).
    """
    frames: List[Dict[str, Any]] = []
    off = 0
    n = len(data)
    while off < n:
        if off + _CRC_BYTES + 4 > n:
            break  # torn: not even a crc + length prefix
        crc = int.from_bytes(data[off : off + _CRC_BYTES], "big")
        try:
            body_len = wire.frame_length(
                data[off + _CRC_BYTES : off + _CRC_BYTES + 4]
            )
        except WireError:
            # a partially-written length prefix is indistinguishable from
            # any other torn bytes; the trailing-bytes check below still
            # rejects it on a non-final segment
            break
        end = off + _CRC_BYTES + 4 + body_len
        if end > n:
            break  # torn: body runs past EOF
        payload = data[off + _CRC_BYTES : end]
        if zlib.crc32(payload) != crc:
            raise WalCorruptionError(
                f"WAL corruption in {source} at byte {off}: record CRC "
                f"mismatch (expected {crc:#010x}, got "
                f"{zlib.crc32(payload):#010x}); refusing to recover past it"
            )
        try:
            frames.append(wire.decode_body(payload[4:]))
        except WireError as exc:
            raise WalCorruptionError(
                f"WAL corruption in {source} at byte {off}: record passed "
                f"its CRC but failed to decode: {exc}"
            ) from None
        off = end
    if off != n and not allow_torn_tail:
        raise WalCorruptionError(
            f"WAL corruption in {source} at byte {off}: {n - off} trailing "
            f"byte(s) on a non-final segment (torn tails are only legal at "
            f"the end of the log)"
        )
    return frames, off


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
            data = f.read()
        frames, valid = decode_records(data, source=snap_path)
        if valid != len(data) or len(frames) != 1:
            raise WalCorruptionError(
                f"unreadable snapshot {snap_path}: expected exactly one "
                f"whole record, got {len(frames)} record(s) and "
                f"{len(data) - valid} trailing byte(s)"
            )
        snapshot = frames[0]
    segments = sorted(
        (idx, name)
        for name in os.listdir(data_dir)
        if (idx := _segment_index(name)) is not None
    )
    return incarnation, snapshot, segments


class SiteWal:
    """One site's durable state: incarnation + snapshot + WAL segments.

    Constructing a ``SiteWal`` *recovers*: it bumps the incarnation file
    (durably, before anything else — a recovered site must never reuse a
    dead epoch), loads the committed snapshot if any, replays every
    uncovered segment (truncating a torn tail on the last one), and opens
    a fresh segment for new appends.  The loaded state is left on
    :attr:`snapshot` and :attr:`records` for the server to consume.
    """

    def __init__(
        self,
        data_dir: str,
        *,
        fsync: str = "group",
        fsync_interval: float = DEFAULT_FSYNC_INTERVAL,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ServiceError(
                f"unknown fsync mode {fsync!r} (choose from {FSYNC_MODES})"
            )
        self.data_dir = data_dir
        self.fsync_mode = fsync
        self.fsync_interval = fsync_interval
        os.makedirs(data_dir, exist_ok=True)

        prev, snapshot, segments = _read_dir(data_dir)
        #: strictly monotone across restarts; the server adopts it as its
        #: link epoch so peers reset their dedup state for the new life
        self.incarnation = prev + 1
        _atomic_write(
            os.path.join(data_dir, _INCARNATION_NAME),
            f"{self.incarnation}\n".encode("utf-8"),
        )

        #: the committed ``snap`` frame, or None on first boot
        self.snapshot = snapshot
        covered = int(snapshot.get("seg", 0)) if snapshot else 0
        #: uncovered WAL frames in append order, ready for replay
        self.records: List[Dict[str, Any]] = []
        live = [(idx, name) for idx, name in segments if idx > covered]
        for pos, (idx, name) in enumerate(live):
            path = os.path.join(data_dir, name)
            with open(path, "rb") as f:
                data = f.read()
            last = pos == len(live) - 1
            frames, valid = decode_records(
                data, source=path, allow_torn_tail=last
            )
            if valid != len(data):
                # torn tail on the final segment: truncate to the last
                # whole record so the next recovery sees a clean log
                with open(path, "r+b") as f:
                    f.truncate(valid)
                    f.flush()
                    os.fsync(f.fileno())
            self.records.extend(frames)
        # segments the committed snapshot covers are dead even if the
        # crash preempted their unlink — finish the retirement lazily
        for idx, name in segments:
            if idx <= covered:
                os.unlink(os.path.join(data_dir, name))

        self._seg_index = (segments[-1][0] if segments else 0) + 1
        self._f: BinaryIO = open(
            os.path.join(data_dir, _segment_name(self._seg_index)), "ab"
        )
        self._dirty = asyncio.Event()
        self._closed = False
        self._fsync_task: Optional[asyncio.Task] = None
        #: counters for the server's metrics plane
        self.records_appended = 0
        self.bytes_appended = 0
        self.raw_appends = 0
        self.fsyncs = 0
        self.snapshots = 0

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
        self._f.write(rec)
        self._f.flush()
        self.records_appended += 1
        self.bytes_appended += len(rec)
        if self.fsync_mode == "group":
            self._dirty.set()

    def start(self) -> None:
        """Start the group-fsync task (call from inside the event loop)."""
        if self.fsync_mode == "group" and self._fsync_task is None:
            self._fsync_task = asyncio.ensure_future(self._fsync_loop())

    async def _fsync_loop(self) -> None:
        loop = asyncio.get_event_loop()
        while not self._closed:
            await self._dirty.wait()
            # group: every append landing in this window shares one flush
            await asyncio.sleep(self.fsync_interval)
            self._dirty.clear()
            f = self._f
            if self._closed or f.closed:
                return
            await loop.run_in_executor(None, os.fsync, f.fileno())
            self.fsyncs += 1

    async def sync(self) -> None:
        """Force one immediate off-loop fsync of the open segment."""
        if self._closed or self._f.closed:
            return
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(None, os.fsync, self._f.fileno())
        self.fsyncs += 1

    # -- snapshots ------------------------------------------------------

    def begin_snapshot(self) -> int:
        """Rotate to a fresh segment; returns the covered segment index.

        Synchronous: the caller captures protocol state and calls this in
        the same no-await block, so the rotation point and the captured
        state agree exactly.
        """
        covered = self._seg_index
        self._f.close()
        self._seg_index += 1
        self._f = open(
            os.path.join(self.data_dir, _segment_name(self._seg_index)), "ab"
        )
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
        """Flush, final-fsync, and close the open segment."""
        if self._closed:
            return
        self._closed = True
        if self._fsync_task is not None:
            self._fsync_task.cancel()
            self._fsync_task = None
        if not self._f.closed:
            self._f.flush()
            if self.fsync_mode == "group":
                os.fsync(self._f.fileno())
                self.fsyncs += 1
            self._f.close()

    # -- offline inspection ---------------------------------------------

    @staticmethod
    def inspect(data_dir: str) -> Dict[str, Any]:
        """Read-only view of a data dir (no incarnation bump, no locks).

        Used by ``repro-kv recover`` to answer "what would a restart
        replay?" without perturbing the site's durable state.
        """
        incarnation, snapshot, segments = _read_dir(data_dir)
        covered = int(snapshot.get("seg", 0)) if snapshot else 0
        records: List[Dict[str, Any]] = []
        live = [(idx, name) for idx, name in segments if idx > covered]
        for pos, (idx, name) in enumerate(live):
            path = os.path.join(data_dir, name)
            with open(path, "rb") as f:
                data = f.read()
            frames, _ = decode_records(
                data, source=path, allow_torn_tail=pos == len(live) - 1
            )
            records.extend(frames)
        return {
            "incarnation": incarnation,
            "snapshot": snapshot,
            "segments": [name for _, name in segments],
            "covered_segment": covered,
            "records": records,
        }

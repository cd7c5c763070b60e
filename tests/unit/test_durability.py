"""The durability seam in isolation: WAL records, torn tails vs
corruption, segment retirement, snapshots, incarnations.

Everything here drives :mod:`repro.service.durability` directly against
a temporary directory — no cluster, no sockets — so each crash-window
claim in docs/durability.md has a test that fabricates exactly that
window on disk and reopens the log.
"""

import asyncio
import errno
import gc
import io
import os
import sys
import threading
import time
import weakref

import pytest

from repro.service import wire
from repro.types import WriteId
from tests.conftest import stamped
from repro.service.durability import (
    DEFAULT_FSYNC_INTERVAL,
    RecordReader,
    SiteWal,
    WalCorruptionError,
    decode_records,
    encode_raw_record,
    encode_record,
)


def run(coro):
    return asyncio.run(coro)


def put_frame(i):
    return wire.make_frame(
        "wal.put", var=f"x{i % 4}", value=f"v{i}",
        w=wire.encode_write_id(WriteId(0, i + 1)),
    )


def frames_of(records):
    return [(f["t"], f["var"], f["value"]) for f in records]


def open_wal(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "none")
    return SiteWal(str(tmp_path), **kwargs)


# ----------------------------------------------------------------------
# record codec
# ----------------------------------------------------------------------
class TestRecords:
    def test_round_trip_many(self):
        frames = [put_frame(i) for i in range(10)]
        data = b"".join(encode_record(f) for f in frames)
        decoded, valid = decode_records(data)
        assert valid == len(data)
        assert frames_of(decoded) == frames_of(frames)

    def test_torn_tail_is_silently_truncated(self):
        frames = [put_frame(i) for i in range(3)]
        data = b"".join(encode_record(f) for f in frames)
        # cut into the last record's body: the decoder must yield the
        # two whole records and report where the valid prefix ends
        whole = len(encode_record(frames[0]) + encode_record(frames[1]))
        decoded, valid = decode_records(data[: len(data) - 3])
        assert valid == whole
        assert frames_of(decoded) == frames_of(frames[:2])

    def test_torn_length_prefix_is_a_torn_tail(self):
        data = encode_record(put_frame(0))
        # not even a whole crc+length header survives
        decoded, valid = decode_records(data[:6])
        assert (decoded, valid) == ([], 0)

    def test_complete_but_corrupt_record_refuses(self):
        data = bytearray(encode_record(put_frame(0)))
        data[-1] ^= 0xFF  # flip a payload byte, record stays complete
        with pytest.raises(WalCorruptionError) as exc:
            decode_records(bytes(data), source="wal.000001")
        assert "wal.000001" in str(exc.value)
        assert "byte 0" in str(exc.value)

    def test_reader_reports_offsets_and_the_valid_prefix(self):
        records = [encode_record(put_frame(i)) for i in range(3)]
        data = b"".join(records)
        reader = RecordReader(io.BytesIO(data[:-1]))
        offsets = [off for off, _ in reader.payloads()]
        assert offsets == [0, len(records[0])]
        assert reader.valid == len(records[0]) + len(records[1])

    def test_trailing_bytes_on_non_final_segment_refuse(self):
        data = encode_record(put_frame(0)) + b"\x00\x01"
        with pytest.raises(WalCorruptionError, match="non-final segment"):
            decode_records(data, allow_torn_tail=False)

    def test_unknown_schema_byte_refuses_by_name(self):
        """A whole, CRC-valid record whose frame schema byte this build
        does not read is refused with the version named — never
        decoded on a guess."""
        body = bytearray(wire.BINARY_CODEC.encode(put_frame(0))[4:])
        body[1] = wire.JSON_WIRE_VERSION + 1
        with pytest.raises(WalCorruptionError) as exc:
            decode_records(encode_raw_record(bytes(body)), source="wal.000001")
        assert "wal.000001" in str(exc.value)
        assert f"unsupported wire version {wire.JSON_WIRE_VERSION + 1}" in str(exc.value)


# ----------------------------------------------------------------------
# raw (wire-bytes passthrough) records
# ----------------------------------------------------------------------
def repl_frame(i):
    return wire.make_frame(
        "repl", var=f"x{i % 4}", value=f"v{i}",
        w=wire.encode_write_id(WriteId(1, i + 1)),
        src=1, dst=0, meta=None, ls=i + 1,
    )


class TestRawRecords:
    def test_binary_body_roundtrips(self):
        frame = repl_frame(0)
        body = wire.BINARY_CODEC.encode(frame)[4:]
        decoded, valid = decode_records(encode_raw_record(body))
        assert valid and len(decoded) == 1
        got = decoded[0]
        assert (got["t"], got["var"], got["value"], got["ls"]) == (
            "repl", "x0", "v0", 1
        )

    def test_json_body_roundtrips(self):
        """decode_records sniffs the codec per record, so a raw body
        captured off a JSON-profile link decodes just as well."""
        frame = repl_frame(1)
        body = wire.JSON_CODEC.encode(frame)[4:]
        decoded, _ = decode_records(encode_raw_record(body))
        assert (decoded[0]["t"], decoded[0]["value"]) == ("repl", "v1")

    def test_corrupt_raw_record_refuses(self):
        body = wire.BINARY_CODEC.encode(repl_frame(0))[4:]
        data = bytearray(encode_raw_record(body))
        data[-1] ^= 0xFF
        with pytest.raises(WalCorruptionError, match="CRC"):
            decode_records(bytes(data))

    def test_raw_appends_interleave_with_encoded(self, tmp_path):
        """Raw and re-encoded records share a segment; recovery sees
        them in append order with no way to tell them apart."""
        wal = open_wal(tmp_path)
        wal.append(put_frame(0))
        wal.append_raw(wire.BINARY_CODEC.encode(repl_frame(0))[4:])
        wal.append(put_frame(1))
        assert (wal.records_appended, wal.raw_appends) == (3, 1)
        wal.close()
        wal2 = open_wal(tmp_path)
        assert [f["t"] for f in wal2.frames()] == ["wal.put", "repl", "wal.put"]
        wal2.close()

    def test_append_raw_after_close_is_a_noop(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.close()
        wal.append_raw(b"\x00")  # must not raise (dying-handler path)
        assert wal.raw_appends == 0


class TestTransportAnnotation:
    """The capture side of the raw fast path: transports annotate
    self-contained repl bodies with their wire bytes under ``_raw``."""

    def test_plain_repl_body_is_annotated(self):
        from repro.service.transport import _decode_annotated

        frame = repl_frame(0)
        body = wire.BINARY_CODEC.encode(frame)[4:]
        out = _decode_annotated(body)
        assert out.pop("_raw") == body
        assert (out["t"], out["var"]) == ("repl", "x0")

    def test_stamped_repl_body_is_annotated(self):
        from repro.service.transport import _decode_annotated

        frame = stamped(repl_frame(0), 1234.0)
        body = wire.BINARY_CODEC.encode(frame)[4:]
        out = _decode_annotated(body)
        assert out.pop("_raw") == body and out["t"] == "repl.t"

    def test_lean_body_is_not(self):
        """The compact codec's self-contained repl frame has a lean
        header — the connection's, not the record's — so it is never
        logged raw: a WAL record always decodes with no connection
        state."""
        from repro.service.transport import _decode_annotated

        for frame in (repl_frame(0), stamped(repl_frame(0), 1234.0)):
            body = wire.BINARY_CODEC_V4.encode(frame)[4:]
            assert body[0] != wire.BINARY_MAGIC
            out = _decode_annotated(body)
            assert "_raw" not in out and out["t"] == frame["t"]

    def test_delta_and_control_bodies_are_not(self):
        from repro.service.transport import _decode_annotated

        for frame in (
            wire.make_frame("link.hello", src=1, epoch=1),
            wire.make_frame("repl.ackp", a=3, ap=0),
        ):
            body = wire.BINARY_CODEC.encode(frame)[4:]
            assert "_raw" not in _decode_annotated(body)


# ----------------------------------------------------------------------
# SiteWal lifecycle
# ----------------------------------------------------------------------
class TestSiteWal:
    def test_append_then_recover(self, tmp_path):
        wal = open_wal(tmp_path)
        for i in range(5):
            wal.append(put_frame(i))
        wal.close()
        wal2 = open_wal(tmp_path)
        assert wal2.snapshot is None
        assert frames_of(wal2.frames()) == frames_of([put_frame(i) for i in range(5)])
        wal2.close()

    def test_incarnation_is_strictly_monotone(self, tmp_path):
        incs = []
        for _ in range(3):
            wal = open_wal(tmp_path)
            incs.append(wal.incarnation)
            wal.close()
        assert incs == [1, 2, 3]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        wal = open_wal(tmp_path)
        for i in range(3):
            wal.append(put_frame(i))
        seg = wal._f.name
        wal.close()
        with open(seg, "r+b") as f:
            f.truncate(os.path.getsize(seg) - 2)
        wal2 = open_wal(tmp_path)
        assert frames_of(wal2.frames()) == frames_of([put_frame(i) for i in range(2)])
        wal2.close()
        # the truncation is persisted: a third recovery sees a clean log
        wal3 = open_wal(tmp_path)
        assert len(list(wal3.frames())) == 2
        wal3.close()

    def test_corrupt_record_refuses_with_file_and_offset(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append(put_frame(0))
        wal.append(put_frame(1))
        seg = wal._f.name
        wal.close()
        with open(seg, "r+b") as f:
            # inside the first record's *body* (past crc + length
            # prefix): the record stays complete, so this is corruption,
            # not a torn tail
            f.seek(10)
            byte = f.read(1)
            f.seek(10)
            f.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError) as exc:
            open_wal(tmp_path)
        assert os.path.basename(seg) in str(exc.value)

    def test_trailing_bytes_on_an_earlier_segment_refuse_at_open(self, tmp_path):
        """Open scans every uncovered segment before it opens a new
        one: a non-final segment with trailing bytes refuses, and the
        refused open leaves the directory's segments as they were."""
        wal = open_wal(tmp_path)
        wal.append(put_frame(0))
        first = wal._f.name
        wal.close()
        wal = open_wal(tmp_path)  # rotates: `first` is no longer last
        wal.append(put_frame(1))
        wal.close()
        with open(first, "ab") as f:
            f.write(b"\x00\x01")
        before = sorted(os.listdir(str(tmp_path)))
        with pytest.raises(WalCorruptionError, match="non-final segment"):
            open_wal(tmp_path)
        assert sorted(os.listdir(str(tmp_path))) == before

    def test_frames_are_read_one_record_at_a_time(self, tmp_path):
        """``frames`` is a lazy reader over the scanned segments: it
        yields before it has read the whole log."""
        wal = open_wal(tmp_path)
        for i in range(3):
            wal.append(put_frame(i))
        wal.close()
        wal2 = open_wal(tmp_path)
        frames = wal2.frames()
        assert frames_of([next(frames)]) == frames_of([put_frame(0)])
        assert frames_of(frames) == frames_of([put_frame(1), put_frame(2)])
        # a second pass reads the same suffix again
        assert len(list(wal2.frames())) == 3
        wal2.close()

    def test_snapshot_retires_covered_prefix_only(self, tmp_path):
        async def main():
            wal = open_wal(tmp_path)
            for i in range(3):
                wal.append(put_frame(i))
            covered = wal.begin_snapshot()
            # records appended after the rotation are NOT covered and
            # must survive the retirement
            for i in range(3, 5):
                wal.append(put_frame(i))
            await wal.commit_snapshot(
                wire.make_frame("snap", marker="s1"), covered
            )
            wal.close()
            return covered

        covered = run(main())
        wal2 = open_wal(tmp_path)
        assert wal2.snapshot["marker"] == "s1"
        assert wal2.snapshot["seg"] == covered
        assert frames_of(wal2.frames()) == frames_of(
            [put_frame(i) for i in range(3, 5)]
        )
        # the covered segment is gone from disk
        names = set(os.listdir(str(tmp_path)))
        assert f"wal.{covered:06d}" not in names
        wal2.close()

    def test_crash_before_unlink_finishes_retirement_lazily(self, tmp_path):
        """The snapshot-commit crash window: snapshot durably renamed,
        covered segments still on disk.  Recovery must ignore (and
        delete) them without reading them — even if they rot."""

        async def main():
            wal = open_wal(tmp_path)
            wal.append(put_frame(0))
            covered = wal.begin_snapshot()
            await wal.commit_snapshot(
                wire.make_frame("snap", marker="s1"), covered
            )
            wal.append(put_frame(1))
            wal.close()
            return covered

        covered = run(main())
        # resurrect a covered segment as pure garbage, as if the crash
        # preempted the unlink (contents must never be decoded)
        ghost = os.path.join(str(tmp_path), f"wal.{covered:06d}")
        with open(ghost, "wb") as f:
            f.write(b"\xde\xad\xbe\xef" * 8)
        wal2 = open_wal(tmp_path)
        assert wal2.snapshot["marker"] == "s1"
        assert frames_of(wal2.frames()) == frames_of([put_frame(1)])
        assert not os.path.exists(ghost)
        wal2.close()

    def test_corrupt_snapshot_refuses(self, tmp_path):
        async def main():
            wal = open_wal(tmp_path)
            covered = wal.begin_snapshot()
            await wal.commit_snapshot(wire.make_frame("snap", marker="x"), covered)
            wal.close()

        run(main())
        snap = os.path.join(str(tmp_path), "snap.bin")
        with open(snap, "r+b") as f:
            f.seek(6)
            f.write(b"\xff")
        with pytest.raises(WalCorruptionError):
            open_wal(tmp_path)

    def test_unknown_fsync_mode_refused(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError, match="fsync"):
            SiteWal(str(tmp_path), fsync="always")

    def test_append_after_close_is_a_noop(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.close()
        wal.append(put_frame(0))  # must not raise (dying-handler path)
        assert wal.records_appended == 0

    def test_group_fsync_task_runs(self, tmp_path):
        async def main():
            wal = SiteWal(str(tmp_path), fsync="group")
            wal.append(put_frame(0))
            for _ in range(100):
                if wal.fsyncs:
                    break
                await asyncio.sleep(0.005)
            wal.close()
            return wal.fsyncs

        assert run(main()) >= 1

    def test_sync_is_one_fsync_and_a_noop_after_close(self, tmp_path):
        async def main():
            wal = open_wal(tmp_path)
            wal.append(put_frame(0))
            await wal.sync()
            synced = wal.fsyncs
            wal.close()
            await wal.sync()
            return synced, wal.fsyncs

        assert run(main()) == (1, 1)

    def test_inspect_is_read_only(self, tmp_path):
        wal = open_wal(tmp_path)
        wal.append(put_frame(0))
        wal.close()
        info = SiteWal.inspect(str(tmp_path))
        assert info["incarnation"] == 1
        assert info["kinds"] == {"wal.put": 1}
        # no incarnation bump: a real reopen still runs as 2
        wal2 = open_wal(tmp_path)
        assert wal2.incarnation == 2
        wal2.close()


# ----------------------------------------------------------------------
# the group-commit thread
# ----------------------------------------------------------------------
def wait_for(cond, windows=1000):
    """Poll ``cond`` for up to ``windows`` group windows; its last value."""
    for _ in range(windows):
        if cond():
            return True
        time.sleep(DEFAULT_FSYNC_INTERVAL)
    return cond()


def group_wal(tmp_path, name):
    return SiteWal(str(tmp_path / name), fsync="group")


class FsyncSpy:
    """Stands in for ``os.fsync``: records the file behind every fd it
    is handed (through ``/proc/self/fd``, so a dup names the segment it
    dups) and the file's size at that moment, then fsyncs."""

    def __init__(self, monkeypatch, fail=0):
        self._real = os.fsync
        self._lock = threading.Lock()
        self.calls = []  # (path, size)
        self.fail = fail  # this many leading segment fsyncs raise EIO
        monkeypatch.setattr(os, "fsync", self)

    def __call__(self, fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        with self._lock:
            if self.fail and os.path.basename(path).startswith("wal."):
                self.fail -= 1
                raise OSError(errno.EIO, "injected fsync failure")
            self.calls.append((path, os.fstat(fd).st_size))
        self._real(fd)

    def paths(self):
        with self._lock:
            return [path for path, _ in self.calls]


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="maps fds through /proc/self/fd"
)


class TestGroupCommit:
    """One group-commit thread per process serves every group WAL: the
    appending thread sets a flag, the thread fsyncs once per window."""

    def test_group_wals_share_one_thread(self, tmp_path):
        before = threading.active_count()
        wals = [group_wal(tmp_path, f"s{i}") for i in range(3)]
        try:
            for wal in wals:
                wal.append(put_frame(0))
            assert wait_for(lambda: all(w.fsyncs for w in wals))
            assert threading.active_count() - before <= 1
        finally:
            for wal in wals:
                wal.close()

    @needs_proc_fd
    def test_each_append_is_fsynced_after_it_with_no_event_loop(
        self, tmp_path, monkeypatch
    ):
        """No event loop runs here, so no loop hop can be what syncs:
        each WAL's segment is fsynced at a size that covers its append."""
        spy = FsyncSpy(monkeypatch)
        wals = [group_wal(tmp_path, f"s{i}") for i in range(3)]
        try:
            with pytest.raises(RuntimeError):
                asyncio.get_running_loop()
            for wal in wals:
                wal.append(put_frame(0))
            sizes = {
                os.path.realpath(w._f.name): os.path.getsize(w._f.name) for w in wals
            }

            def covered():
                got = dict(spy.calls)
                return all(got.get(p, -1) >= size for p, size in sizes.items())

            assert wait_for(covered)
            assert wait_for(lambda: all(w.fsyncs == 1 for w in wals))
        finally:
            for wal in wals:
                wal.close()

    def test_appends_make_no_executor_calls(self, tmp_path, monkeypatch):
        async def main():
            loop = asyncio.get_running_loop()
            hops = []
            real = loop.run_in_executor

            def counting(*args):
                hops.append(args)
                return real(*args)

            monkeypatch.setattr(loop, "run_in_executor", counting)
            wal = group_wal(tmp_path, "s0")
            for i in range(1000):  # one loop step: no await between
                wal.append(put_frame(i))
            for _ in range(1000):
                if wal.fsyncs:
                    break
                await asyncio.sleep(DEFAULT_FSYNC_INTERVAL)
            synced = wal.fsyncs
            wal.close()
            return synced, len(hops)

        synced, hops = run(main())
        assert synced >= 1
        assert hops == 0

    @needs_proc_fd
    def test_closed_wal_is_dropped_and_never_fsynced_again(
        self, tmp_path, monkeypatch
    ):
        wal = group_wal(tmp_path, "s0")
        wal.append(put_frame(0))
        segment = os.path.realpath(wal._f.name)
        wal.close()
        spy = FsyncSpy(monkeypatch)
        wal.append(put_frame(1))  # a no-op after close
        ref = weakref.ref(wal)
        del wal
        # another WAL's window passes through the thread meanwhile
        other = group_wal(tmp_path, "s1")
        other.append(put_frame(0))
        assert wait_for(lambda: other.fsyncs)
        other.close()

        def dropped():
            gc.collect()
            return ref() is None

        assert wait_for(dropped)
        assert segment not in spy.paths()

    @needs_proc_fd
    def test_failed_fsync_is_counted_and_retried(self, tmp_path, monkeypatch):
        """A failing fsync neither kills the thread nor ends syncing for
        its WAL: it is counted, and the next window tries again."""
        spy = FsyncSpy(monkeypatch, fail=1)
        wal = group_wal(tmp_path, "s0")
        try:
            wal.append(put_frame(0))
            assert wait_for(lambda: wal.fsyncs)
            assert wal.sync_errors == 1
            for i in range(1, 21):
                wal.append(put_frame(i))
            size = os.path.getsize(wal._f.name)
            assert wait_for(lambda: max(sz for _, sz in spy.calls) >= size)
            other = group_wal(tmp_path, "s1")
            other.append(put_frame(0))
            assert wait_for(lambda: other.fsyncs)
            other.close()
            assert wal.sync_errors == 1
        finally:
            wal.close()

    @needs_proc_fd
    def test_rotation_fsyncs_the_retiring_segment(self, tmp_path, monkeypatch):
        spy = FsyncSpy(monkeypatch)
        wal = group_wal(tmp_path, "s0")
        try:
            wal.append(put_frame(0))
            retiring = os.path.realpath(wal._f.name)
            wal.begin_snapshot()
            assert wait_for(lambda: spy.calls, windows=25)
            assert retiring in spy.paths()
        finally:
            wal.close()

    @needs_proc_fd
    def test_fsync_counts_survive_both_threads(self, tmp_path, monkeypatch):
        """Owner fsyncs (rotation, close) and group fsyncs land on one
        WAL from two threads at once, under a tiny switch interval: the
        WALs' ``fsyncs`` still add up to the segment fsyncs made."""
        spy = FsyncSpy(monkeypatch)
        wals = [group_wal(tmp_path, f"s{i}") for i in range(4)]

        def writer(wal):
            for i in range(200):
                wal.append(put_frame(i))
                wal.begin_snapshot()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in wals]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        for wal in wals:
            wal.close()
        made = sum(
            1 for path in spy.paths() if os.path.basename(path).startswith("wal.")
        )
        assert sum(w.fsyncs for w in wals) == made

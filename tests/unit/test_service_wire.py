"""Wire-format round trips and rejection cases (repro.service.wire)."""

import numpy as np
import pytest

from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import DepLog
from repro.core.messages import CrpMeta, FetchReply, FetchRequest, OptTrackMeta, UpdateMessage
from repro.errors import WireError
from repro.service import wire
from repro.types import WriteId


def roundtrip(frame):
    encoded = wire.encode_frame(frame)
    assert wire.frame_length(encoded[:4]) == len(encoded) - 4
    return wire.decode_body(encoded[4:])


class TestFraming:
    def test_frame_roundtrip(self):
        frame = wire.make_frame("put", var="x0", value="v")
        assert roundtrip(frame) == frame

    def test_version_field_stamped(self):
        # frames carry the frame *schema* version; WIRE_VERSION is the
        # capability a hello offers, not a byte on any frame
        assert wire.make_frame("ping")["v"] == wire.JSON_WIRE_VERSION
        assert wire.JSON_WIRE_VERSION < wire.WIRE_VERSION

    def test_refusal_names_both_versions(self):
        # the support window is one version: a v7 build is refused by
        # name, with the version this side speaks
        assert wire.WIRE_VERSION == 8
        message = str(wire.unsupported_version(7, "a hello"))
        assert message == (
            "unsupported wire version 7 in a hello: this side speaks version 8 only"
        )

    def test_unsupported_version_rejected(self):
        encoded = wire.encode_frame({"v": wire.WIRE_VERSION + 1, "t": "ping"})
        with pytest.raises(WireError, match="unsupported wire version"):
            wire.decode_body(encoded[4:])

    def test_missing_type_rejected(self):
        encoded = wire.encode_frame({"v": wire.JSON_WIRE_VERSION})
        with pytest.raises(WireError, match="type field"):
            wire.decode_body(encoded[4:])

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            wire.decode_body(b"[1, 2]")

    def test_undecodable_body_rejected(self):
        with pytest.raises(WireError, match="undecodable"):
            wire.decode_body(b"\xff\xfe not json")

    def test_oversized_length_prefix_rejected(self):
        import struct

        prefix = struct.pack(">I", wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="exceeds"):
            wire.frame_length(prefix)

    def test_write_id_roundtrip(self):
        wid = WriteId(3, 17)
        assert wire.decode_write_id(wire.encode_write_id(wid)) == wid
        assert wire.decode_write_id(wire.encode_write_id(None)) is None


class TestMetaCodec:
    def check(self, meta):
        return wire.decode_meta(roundtrip(wire.make_frame("x", m=wire.encode_meta(meta)))["m"])

    def test_none(self):
        assert self.check(None) is None

    def test_opt_track_meta(self):
        meta = OptTrackMeta(7, 0b101, DepLog({(0, 3): 0b110, (2, 1): 0b001}))
        out = self.check(meta)
        assert isinstance(out, OptTrackMeta)
        assert (out.clock, out.replicas_mask) == (7, 0b101)
        assert out.log.entries == meta.log.entries

    def test_crp_meta(self):
        out = self.check(CrpMeta(4, {0: 2, 3: 1}))
        assert isinstance(out, CrpMeta)
        assert (out.clock, out.log) == (4, {0: 2, 3: 1})

    def test_deplog(self):
        log = DepLog({(1, 5): 0b11})
        out = self.check(log)
        assert isinstance(out, DepLog)
        assert out.entries == log.entries

    def test_matrix_clock(self):
        mc = MatrixClock(3, np.arange(9, dtype=np.int64).reshape(3, 3))
        out = self.check(mc)
        assert isinstance(out, MatrixClock)
        assert np.array_equal(out.m, mc.m)

    def test_vector_clock(self):
        vc = VectorClock(4, np.array([1, 0, 2, 5], dtype=np.int64))
        out = self.check(vc)
        assert isinstance(out, VectorClock)
        assert np.array_equal(out.v, vc.v)

    def test_ndarray(self):
        arr = np.array([3, 1, 4], dtype=np.int64)
        out = self.check(arr)
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, arr)

    def test_int_tuple_vs_pair_tuple(self):
        assert self.check((1, 2, 3)) == (1, 2, 3)
        assert self.check(((0, 2), (1, 5))) == ((0, 2), (1, 5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="unknown metadata kind"):
            wire.decode_meta({"k": "nope"})

    def test_unserializable_rejected(self):
        with pytest.raises(WireError, match="unserializable"):
            wire.encode_meta(object())


class TestMessageCodecs:
    def test_update_roundtrip_preserves_link_seq(self):
        msg = UpdateMessage(
            var="x1",
            value="v0.1",
            write_id=WriteId(0, 1),
            sender=0,
            dest=2,
            meta=OptTrackMeta(1, 0b110, DepLog({(0, 1): 0b100})),
        )
        frame = roundtrip(wire.encode_update(msg, link_seq=9))
        assert frame["ls"] == 9
        out = wire.decode_update(frame)
        assert (out.var, out.value, out.write_id) == ("x1", "v0.1", WriteId(0, 1))
        assert (out.sender, out.dest) == (0, 2)
        assert out.meta.log.entries == msg.meta.log.entries

    def test_fetch_roundtrip(self):
        req = FetchRequest(var="x0", requester=2, server=1, fetch_id=5, deps=((0, 3),))
        frame = roundtrip(wire.encode_fetch_request(req))
        # requester and server are the link's two ends, not fields
        assert sorted(frame) == ["deps", "fid", "t", "v", "var"]
        with pytest.raises(WireError, match="malformed fetch frame"):
            wire.decode_fetch_request(dict(frame))
        link = wire.DeltaDecoder(2, 1)  # site 2 dialed site 1
        assert wire.decode_fetch_request(link.restore(frame)) == req

    def test_fetch_reply_roundtrip_with_applied(self):
        reply = FetchReply(
            var="x0",
            value=11,
            write_id=WriteId(1, 4),
            server=1,
            requester=2,
            fetch_id=5,
            meta=((1, 4),),
            applied=(2, 4, 0),
        )
        frame = roundtrip(wire.encode_fetch_reply(reply))
        assert "sv" not in frame and "rq" not in frame
        link = wire.DeltaEncoder(None, 2, 1)  # the requester's end
        assert wire.decode_fetch_reply(link.restore(frame)) == reply

    def test_malformed_update_rejected(self):
        with pytest.raises(WireError, match="malformed repl frame"):
            wire.decode_update(wire.make_frame("repl", var="x"))

    def test_repl_without_write_id_rejected(self):
        frame = wire.make_frame(
            "repl", var="x", value=1, w=None, src=0, dst=1, meta=None, ls=1
        )
        with pytest.raises(WireError):
            wire.decode_update(frame)

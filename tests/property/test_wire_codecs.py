"""Property: both wire codecs are faithful — any frame the service can
legitimately produce round-trips bit-exactly through encode/decode, the
binary codec included.

The strategies generate frames the way the service does (through
``make_frame``/``encode_update``/``encode_fetch_request``/...), over
every metadata kind :func:`repro.service.wire.encode_meta` emits —
dependency logs, matrix/vector clocks, ``ivec`` apply snapshots, pair
summaries — so a codec regression on any field layout fails here before
it fails in a cluster."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import MatrixClock, VectorClock
from repro.core.log import DepLog
from repro.core.messages import (
    CrpMeta,
    FetchReply,
    FetchRequest,
    OptTrackMeta,
    UpdateMessage,
)
from repro.errors import WireError
from repro.service import wire
from repro.types import WriteId
from tests.conftest import stamped

CODECS = (wire.JSON_CODEC, wire.BINARY_CODEC, wire.BINARY_CODEC_V4)

# bounded to what the protocols produce: small non-negative site ids and
# clocks, int64-safe masks (the binary intlist packs up to 8-byte ints)
sites = st.integers(min_value=0, max_value=63)
clocks = st.integers(min_value=0, max_value=2**40)
masks = st.integers(min_value=0, max_value=2**62)
varnames = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12
)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=200),
)


@st.composite
def deplogs(draw):
    entries = draw(
        st.dictionaries(st.tuples(sites, clocks), masks, min_size=0, max_size=8)
    )
    return DepLog(dict(entries))


@st.composite
def metas(draw):
    kind = draw(
        st.sampled_from(["none", "ot", "crp", "dl", "mc", "vc", "arr", "ivec", "pairs"])
    )
    if kind == "none":
        return None
    if kind == "ot":
        return OptTrackMeta(
            clock=draw(clocks),
            replicas_mask=draw(masks),
            log=draw(deplogs()),
        )
    if kind == "crp":
        return CrpMeta(
            clock=draw(clocks),
            log=draw(st.dictionaries(sites, clocks, max_size=8)),
        )
    if kind == "dl":
        return draw(deplogs())
    if kind == "mc":
        n = draw(st.integers(min_value=1, max_value=6))
        m = draw(
            st.lists(
                st.lists(clocks, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
        return MatrixClock(n, np.array(m, dtype=np.int64))
    if kind == "vc":
        v = draw(st.lists(clocks, min_size=1, max_size=8))
        return VectorClock(len(v), np.array(v, dtype=np.int64))
    if kind == "arr":
        return np.array(draw(st.lists(clocks, min_size=1, max_size=8)), dtype=np.int64)
    if kind == "ivec":
        return tuple(draw(st.lists(clocks, min_size=0, max_size=8)))
    return tuple(draw(st.lists(st.tuples(sites, clocks), min_size=0, max_size=8)))


def meta_equal(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (MatrixClock, VectorClock)):
        return type(a) is type(b) and np.array_equal(
            a.m if isinstance(a, MatrixClock) else a.v,
            b.m if isinstance(b, MatrixClock) else b.v,
        )
    if isinstance(a, DepLog):
        return isinstance(b, DepLog) and a.entries == b.entries
    if isinstance(a, OptTrackMeta):
        return (a.clock, a.replicas_mask) == (b.clock, b.replicas_mask) and meta_equal(
            a.log, b.log
        )
    if isinstance(a, CrpMeta):
        return (a.clock, a.log) == (b.clock, b.log)
    return a == b


def roundtrip(codec, frame):
    encoded = codec.encode(frame)
    assert wire.frame_length(encoded[:4]) == len(encoded) - 4
    return wire.decode_body(encoded[4:])


class TestFrameRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        var=varnames,
        value=values,
        wid=st.tuples(sites, clocks),
        src=sites,
        dst=sites,
        meta=metas(),
        ls=clocks,
    )
    def test_update_frames(self, var, value, wid, src, dst, meta, ls):
        msg = UpdateMessage(
            var=var,
            value=value,
            write_id=WriteId(*wid),
            sender=src,
            dest=dst,
            meta=meta,
        )
        frame = wire.encode_update(msg, ls)
        for codec in CODECS:
            out = wire.decode_update(roundtrip(codec, frame))
            assert (out.var, out.value) == (msg.var, msg.value)
            assert (out.write_id, out.sender, out.dest) == (
                msg.write_id,
                msg.sender,
                msg.dest,
            )
            assert meta_equal(out.meta, msg.meta), codec.name

    @settings(max_examples=80, deadline=None)
    @given(
        var=varnames,
        rq=sites,
        sv=sites,
        fid=clocks,
        deps=metas(),
    )
    def test_fetch_request_frames(self, var, rq, sv, fid, deps):
        req = FetchRequest(var=var, requester=rq, server=sv, fetch_id=fid, deps=deps)
        frame = wire.encode_fetch_request(req)
        assert "rq" not in frame and "sv" not in frame  # the link's two ends
        link = wire.DeltaDecoder(rq, sv)
        for codec in CODECS:
            out = wire.decode_fetch_request(link.restore(roundtrip(codec, frame)))
            assert (out.var, out.requester, out.server, out.fetch_id) == (
                var,
                rq,
                sv,
                fid,
            )
            assert meta_equal(out.deps, deps), codec.name

    @settings(max_examples=80, deadline=None)
    @given(ack=clocks)
    def test_ack_frames(self, ack):
        frame = wire.make_frame("repl.ack", a=ack)
        for codec in CODECS:
            assert roundtrip(codec, frame) == frame

    @settings(max_examples=80, deadline=None)
    @given(
        src=sites,
        epoch=clocks,
        cv=st.integers(min_value=0, max_value=wire.WIRE_VERSION + 1),
    )
    def test_handshake_frames(self, src, epoch, cv):
        # handshakes travel JSON on a fresh connection, but must survive
        # both codecs (a repeated hello is sent in binary) — whatever
        # ``cv`` they carry: the refusal needs to read it
        for frame in (
            wire.make_frame("link.hello", src=src, epoch=epoch, cv=cv),
            wire.make_frame("link.ok", ack=epoch, cv=cv),
            wire.make_frame("hello", cv=cv),
            wire.make_frame("hello.ok", site=src, cv=cv),
        ):
            for codec in CODECS:
                assert roundtrip(codec, frame) == frame

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.sampled_from(["put", "put.ok", "get", "get.ok", "fetch.ok", "err"]),
        var=varnames,
        value=values,
        extra=st.dictionaries(
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8
            # reserved frame fields plus the two explicit kwargs below
            ).filter(lambda k: k not in ("t", "v", "var", "value")),
            values,
            max_size=4,
        ),
    )
    def test_generic_frames(self, t, var, value, extra):
        # arbitrary field sets: frames that match a binary schema take
        # the positional layout, everything else the generic map layout —
        # both must round-trip identically
        frame = wire.make_frame(t, var=var, value=value, **extra)
        for codec in CODECS:
            assert roundtrip(codec, frame) == frame, codec.name


def reference_varints(v):
    """The varint int vector of docs/service.md, spelled naively: tag
    0x70 | count (0x7F + a count byte from 15 up), then each element
    zigzagged (sign into bit 0) as little-endian base-128 groups, high
    bit set on all but the last."""
    assert len(v) < 255
    out = bytearray([0x70 | len(v)] if len(v) < 15 else [0x7F, len(v)])
    for x in v:
        u = 2 * x if x >= 0 else -2 * x - 1
        while u >= 128:
            out.append(u % 128 + 128)
            u //= 128
        out.append(u)
    return bytes(out)


class TestBinaryCodecEdges:
    @settings(max_examples=60, deadline=None)
    @given(
        v=st.lists(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            min_size=0,
            max_size=40,
        )
    )
    def test_int_vectors_any_width(self, v):
        # exercises every intlist element width (1/2/4/8 bytes) from the
        # plain encoder and every varint length (1..10 bytes) from the
        # compact one
        frame = wire.make_frame("fetch.ok", var="x", value=None, meta={"k": "ivec", "v": v})
        plain, compact = (
            codec.encode(frame)[4:] for codec in (wire.BINARY_CODEC, wire.BINARY_CODEC_V4)
        )
        for body in (plain, compact):
            assert wire.decode_body(body)["meta"]["v"] == v
        # the vector is the last thing in the body: the compact one is
        # spelled exactly as the format says, by an independent encoder
        assert compact.endswith(reference_varints(v))

    @settings(max_examples=60, deadline=None)
    @given(v=st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=6))
    def test_ints_outside_int64_fall_back_to_a_plain_list(self, v):
        frame = wire.make_frame("put", var="x", value=v)
        for codec in (wire.BINARY_CODEC, wire.BINARY_CODEC_V4):
            assert roundtrip(codec, frame)["value"] == v

    def test_bools_never_intlist(self):
        # bools are ints in Python; the intlist fast path must not
        # swallow them or round-trip would change their type
        frame = wire.make_frame("put", var="x", value=[True, False, True, False, True])
        out = roundtrip(wire.BINARY_CODEC, frame)
        assert out["value"] == [True, False, True, False, True]
        assert all(isinstance(x, bool) for x in out["value"])

    def test_sniffing_is_unambiguous(self):
        frame = wire.make_frame("ping")
        jbody = wire.JSON_CODEC.encode(frame)[4:]
        bbody = wire.BINARY_CODEC.encode(frame)[4:]
        assert jbody[0] == 0x7B and bbody[0] == wire.BINARY_MAGIC
        assert wire.decode_body(jbody) == wire.decode_body(bbody) == frame

    def test_no_tag_reads_as_another_codec(self):
        """A lean body opens with its tag, so no tag — with or without
        the schema bit — may be ``{`` or the binary magic, and the
        compact codec's bodies open with the tag."""
        tags = range(len(wire._FRAME_TYPES))
        firsts = {t | bit for t in tags for bit in (0, wire._SCHEMA_BIT)}
        assert not firsts & {0x7B, wire.BINARY_MAGIC}
        assert max(firsts) == 0xA4 and max(tags) == 0x24
        frame = wire.make_frame("ping")
        lean = wire.BINARY_CODEC_V4.encode(frame)[4:]
        assert lean[0] == wire._FRAME_TAGS["ping"]  # then its (empty) field map
        assert wire.decode_body(lean) == frame

    def test_other_schema_versions_keep_the_full_header(self):
        # a lean header implies the current schema: a frame of another
        # one keeps the bytes its receiver refuses it by
        frame = {"v": wire.JSON_WIRE_VERSION + 1, "t": "ping"}
        body = wire.BINARY_CODEC_V4.encode(frame)[4:]
        assert body[0] == wire.BINARY_MAGIC
        with pytest.raises(WireError, match="unsupported wire version"):
            wire.decode_body(body)

    def test_unknown_tag_rejected(self):
        body = bytes([wire.BINARY_MAGIC, wire.JSON_WIRE_VERSION, 0x7F])
        with pytest.raises(WireError):
            wire.decode_body(body)

    def test_undecodable_type_string_rejected(self):
        # tag 0 spells the frame type out in the body; bytes that are
        # not UTF-8 there used to escape as UnicodeDecodeError
        body = bytes([wire.BINARY_MAGIC, wire.JSON_WIRE_VERSION, 0, 0x30, 1, 0xF4])
        with pytest.raises(WireError):
            wire.decode_body(body)

    def test_truncated_body_rejected(self):
        frame = wire.make_frame("put", var="xyz", value="abcdef")
        body = wire.BINARY_CODEC.encode(frame)[4:]
        for cut in (3, len(body) // 2, len(body) - 1):
            with pytest.raises(WireError):
                wire.decode_body(body[:cut])

    def test_trailing_bytes_rejected(self):
        body = wire.BINARY_CODEC.encode(wire.make_frame("ping"))[4:]
        with pytest.raises(WireError):
            wire.decode_body(body + b"\x00")


# ======================================================================
# one-pass wire: the hot frames' encoders and decoders against the dict
# path, byte for byte and object for object
# ======================================================================
BINARY = (wire.BINARY_CODEC, wire.BINARY_CODEC_V4)
ITAB = wire.InternTable(wire.intern_table_names(f"x{i}" for i in range(8)))
#: names inside and outside the negotiated table (interned / literal)
VARS = st.sampled_from(list(ITAB.names) + ["zz_outside_table"])
ISSUED = st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0**31))
small_sites = st.integers(min_value=0, max_value=15)


def body_of(encoded):
    assert wire.frame_length(encoded[:4]) == len(encoded) - 4
    return encoded[4:]


def messages_equal(a, b):
    return (
        (a.var, a.value, a.write_id, a.sender, a.dest)
        == (b.var, b.value, b.write_id, b.sender, b.dest)
        and meta_equal(a.meta, b.meta)
        and (
            not isinstance(a.meta, OptTrackMeta)
            or a.meta.log.latest_by_sender == b.meta.log.latest_by_sender
        )
    )


@st.composite
def meta_chains(draw):
    """Metadata of one family as a live link evolves it: small steps
    (profitable deltas), at least one wholesale turnover (the
    fall-back-to-full frame) and one reconnect (fresh chain)."""
    family = draw(st.sampled_from(["ot", "crp", "mc", "vc", "none"]))
    steps = draw(
        st.lists(st.sampled_from(["small", "small", "churn"]), min_size=3, max_size=7)
    )
    steps[draw(st.integers(min_value=1, max_value=len(steps) - 1))] = "churn"
    clock = draw(st.integers(min_value=1, max_value=2**20))
    out = []
    if family == "ot":
        entries = dict(draw(st.dictionaries(st.tuples(small_sites, clocks), masks, max_size=6)))
        for step in steps:
            clock += draw(st.integers(min_value=1, max_value=300))
            entries = dict(entries)
            if step == "churn":
                entries = dict(
                    draw(st.dictionaries(st.tuples(small_sites, clocks), masks, max_size=6))
                )
            elif entries and draw(st.booleans()):
                key = draw(st.sampled_from(sorted(entries)))
                if draw(st.booleans()):
                    del entries[key]
                else:
                    entries[key] = draw(masks)
            entries[(draw(small_sites), clock)] = draw(st.sampled_from([0, 0, 5]))
            out.append(OptTrackMeta(clock, draw(masks), DepLog(entries)))
    elif family == "crp":
        log = dict(draw(st.dictionaries(small_sites, clocks, max_size=6)))
        for step in steps:
            clock += draw(st.integers(min_value=1, max_value=300))
            log = dict(log)
            if step == "churn":
                log = dict(draw(st.dictionaries(small_sites, clocks, max_size=6)))
            elif log and draw(st.booleans()):
                del log[draw(st.sampled_from(sorted(log)))]
            log[draw(small_sites)] = clock
            out.append(CrpMeta(clock, log))
    elif family == "mc":
        n = draw(st.integers(min_value=2, max_value=5))
        m = np.array(
            draw(st.lists(st.lists(clocks, min_size=n, max_size=n), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        for step in steps:
            m = m.copy()
            if step == "churn":
                m += draw(st.integers(min_value=1, max_value=9))
            else:
                m[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += 1
            out.append(MatrixClock(n, m))
    elif family == "vc":
        v = draw(st.lists(clocks, min_size=1, max_size=8))
        for _ in steps:
            out.append(VectorClock(len(v), np.array(v, dtype=np.int64)))
    else:
        out = [None for _ in steps]
    return out


@st.composite
def update_streams(draw):
    """``(messages, reconnect index)``: one sender's updates over one
    link, the write id derivable from ``(sender, meta.clock)`` on some
    and explicit on others."""
    sender, dest = draw(small_sites), draw(small_sites)
    msgs = []
    for i, meta in enumerate(draw(meta_chains())):
        seq = getattr(meta, "clock", None)
        if seq is None or not draw(st.booleans()):
            seq = draw(clocks)  # explicit (and for clockless metas, required)
        msgs.append(
            UpdateMessage(draw(VARS), draw(values), WriteId(sender, seq), sender, dest, meta)
        )
    return msgs, draw(st.integers(min_value=1, max_value=len(msgs) - 1))


def dict_path_update(codec, enc, msg, ls, issued):
    """The frame bytes a dict-speaking sender produces: through the
    link's chain, or (``enc`` ``None``) the self-contained spelling."""
    if enc is not None:
        return codec.encode(enc.encode_update(msg, ls, issued))
    frame = wire.encode_update(msg, ls)
    return codec.encode(frame if issued is None else stamped(frame, issued))


class TestOnePassIdentity:
    @settings(max_examples=150, deadline=None)
    @given(stream=update_streams(), issued=ISSUED, interned=st.booleans(), ls0=clocks)
    def test_repl_chain_bytes_and_objects(self, stream, issued, interned, ls0):
        """The v5 chain: full, delta, fall-back-to-full and the full
        frame after a reconnect — one-pass bytes are the dict path's,
        both decoders rebuild the same messages from them, and the
        first frame after every handshake is absolute in every chained
        field while every later one carries advances."""
        msgs, reconnect = stream
        codec = wire.BINARY_CODEC_V4
        itab = ITAB if interned else None
        sender, dest = msgs[0].sender, msgs[0].dest

        def handshake():
            # a fresh connection makes both ends of both paths anew
            return (
                wire.DeltaEncoder(itab, sender, dest), wire.DeltaEncoder(itab, sender, dest),
                wire.DeltaDecoder(sender, dest), wire.DeltaDecoder(sender, dest),
            )

        dict_enc, one_enc, dict_dec, one_dec = handshake()
        kinds = []
        stamp = None
        for i, msg in enumerate(msgs):
            if i == reconnect:
                dict_enc, one_enc, dict_dec, one_dec = handshake()
            ls = ls0 + i
            previous, stamp = stamp, None if issued is None else issued + 2.5 * i
            expect = dict_path_update(codec, dict_enc, msg, ls, stamp)
            got = one_enc.pack_update(msg, ls, stamp, codec)
            assert got == expect
            kinds.append(wire.encoded_kind(got))
            on_wire = wire.decode_body(body_of(expect))
            assert not {"src", "dst", "_raw"} & set(on_wire)
            if i in (0, reconnect):
                assert on_wire["ls"] == ls
                assert on_wire.get("it") == (None if stamp is None else int(stamp))
            else:
                assert on_wire["ls"] == 1
                assert on_wire.get("it") == (
                    None if stamp is None else int(stamp) - int(previous)
                )
            frame = dict_dec.restore(on_wire)
            assert (frame["src"], frame["dst"], frame["ls"]) == (sender, dest, ls)
            it = wire.strip_issue(frame)
            assert it == (None if stamp is None else int(stamp))
            via_dict = dict_dec.decode_update(frame, ITAB)
            parsed = wire.decode_message(body_of(got), ITAB, one_dec)
            assert isinstance(parsed, wire.ReplFrame)
            assert (parsed.src, parsed.dst, parsed.ls, parsed.it) == (sender, dest, ls, it)
            assert parsed.delta == kinds[-1].startswith("repl.delta")
            via_one = one_dec.unpack_update(parsed)
            assert messages_equal(via_one, via_dict)
            assert messages_equal(via_one, msg)
        stamped = issued is not None
        assert kinds[0] == kinds[reconnect] == ("repl.t" if stamped else "repl")

    def test_chain_shape_full_delta_fallback_reconnect(self):
        """The generated chains do take every branch: pin one by hand."""
        def meta(clock, entries):
            return OptTrackMeta(clock, 6, DepLog(entries))
        base = {(0, 5): 6, (2, 9): 3, (3, 30): 0, (4, 12): 5}
        metas = [
            meta(41, {**base, (1, 41): 5}),
            meta(42, {**base, (1, 42): 5}),                     # small diff
            meta(43, {(s, 100 + s): 1 for s in range(5)}),      # turnover
            meta(44, {**{(s, 100 + s): 1 for s in range(5)}, (1, 44): 4}),
            meta(45, {**{(s, 100 + s): 1 for s in range(5)}, (1, 45): 4}),
        ]
        msgs = [UpdateMessage("x1", "v", WriteId(1, m.clock), 1, 2, m) for m in metas]
        enc, kinds = wire.DeltaEncoder(ITAB, 1, 2), []
        for i, msg in enumerate(msgs):
            if i == 4:
                enc = wire.DeltaEncoder(ITAB, 1, 2)
            kinds.append(wire.encoded_kind(enc.pack_update(msg, i + 1, 7.0)))
        assert kinds == ["repl.t", "repl.delta.t", "repl.t", "repl.delta.t", "repl.t"]

    @settings(max_examples=100, deadline=None)
    @given(
        var=VARS, value=values, wid=st.tuples(sites, clocks), src=sites, dst=sites,
        meta=metas(), ls=clocks, issued=ISSUED, compact=st.booleans(),
    )
    def test_plain_and_wal_update_frames(
        self, var, value, wid, src, dst, meta, ls, issued, compact
    ):
        """Self-contained full frames (what a snapshot nests, what a
        link sent before WIRE_VERSION 5) and their ``wal.repl`` twin,
        over every metadata kind ``encode_meta`` emits.  On a link they
        pass the chain untouched — absolute, and annotated with their bytes
        for the raw WAL append unless lean (a WAL record carries the
        full header)."""
        codec = BINARY[compact]
        msg = UpdateMessage(var, value, WriteId(*wid), src, dst, meta)
        expect = dict_path_update(codec, None, msg, ls, issued)
        got = codec.pack_update(msg, ls, issued)
        assert got == expect
        link = wire.DeltaDecoder(src + 1, dst + 1)
        frame = link.restore(wire.decode_message(body_of(got), None, link))
        assert frame.pop("_raw", None) == (None if compact else body_of(got))
        assert (frame["src"], frame["dst"], frame["ls"]) == (src, dst, ls)
        assert wire.strip_issue(frame) == (None if issued is None else int(issued))
        assert messages_equal(link.decode_update(frame), msg)
        assert link._last_ls == 0  # not a frame of the chain
        durable = wire.encode_update(msg, ls)
        durable["t"] = "wal.repl"
        assert codec.pack_update(msg, ls, wal=True) == codec.encode(durable)

    @settings(max_examples=100, deadline=None)
    @given(
        acks=st.lists(st.tuples(clocks, clocks), min_size=1, max_size=4),
        var=VARS, value=values,
        wid=st.one_of(st.none(), st.tuples(sites, clocks)), by=sites,
        compact=st.booleans(), interned=st.booleans(),
    )
    def test_ack_and_client_frames(self, acks, var, value, wid, by, compact, interned):
        codec = BINARY[compact]
        itab = ITAB if interned else None
        wid = None if wid is None else WriteId(*wid)
        w = wire.encode_write_id(wid)
        on_wire = var if itab is None else itab.encode_var(var)
        cases = [
            (
                wire.make_frame("put", var=on_wire, value=value),
                codec.pack_put(var, value, itab),
                wire.Put(var, value),
            ),
            (wire.make_frame("put.ok", w=w), codec.pack_put_ok(wid), wire.PutOk(wid)),
            (
                wire.make_frame("get", var=on_wire),
                codec.pack_get(var, itab),
                wire.Get(var),
            ),
            (
                wire.make_frame("get.ok", value=value, w=w, by=by),
                codec.pack_get_ok(value, wid, by),
                wire.GetOk(value, wid, by),
            ),
        ]
        for frame, got, message in cases:
            assert got == codec.encode(frame), frame["t"]
            assert wire.encoded_kind(got) == frame["t"]
            decoded = wire.decode_message(body_of(got), ITAB)
            assert type(decoded) is type(message) and decoded == message
        # acks: the accepting end chains ``a``, the dialing end restores
        # it — first one absolute, the rest advances, on both paths
        dict_dec, one_dec = wire.DeltaDecoder(1, 2), wire.DeltaDecoder(1, 2)
        dict_enc, one_enc = wire.DeltaEncoder(None, 1, 2), wire.DeltaEncoder(None, 1, 2)
        last = 0
        for ack, gap in acks:
            frame = dict_dec.pack_ack(ack, gap, None)
            got = one_dec.pack_ack(ack, gap, codec)
            assert got == codec.encode(frame) and wire.encoded_kind(got) == "repl.ackp"
            assert (frame["a"], frame["ap"]) == (ack - last, gap)
            last = ack
            assert wire.decode_message(body_of(got), None, one_enc) == wire.Ack(ack, gap)
            restored = dict_enc.restore(wire.decode_body(body_of(got)))
            assert (restored["a"], restored["ap"]) == (ack, gap)

    @settings(max_examples=100, deadline=None)
    @given(
        var=VARS, value=values, wid=st.one_of(st.none(), st.tuples(sites, clocks)),
        sv=sites, rq=sites, fid=clocks,
        meta=st.one_of(st.none(), deplogs(), metas()),
        applied=st.one_of(st.none(), st.lists(clocks, max_size=8).map(tuple)),
        deps=st.one_of(
            st.none(),
            st.lists(st.tuples(sites, clocks), max_size=8).map(tuple),
            st.lists(clocks, min_size=1, max_size=8).map(tuple),
        ),
        lean=st.booleans(), interned=st.booleans(),
    )
    def test_fetch_frames(
        self, var, value, wid, sv, rq, fid, meta, applied, deps, lean, interned
    ):
        codec = BINARY[lean]
        itab = ITAB if interned else None
        # requester and server are the link's ends: ``rq`` dialed ``sv``
        serving, asking = wire.DeltaDecoder(rq, sv), wire.DeltaEncoder(itab, rq, sv)
        req = FetchRequest(var, rq, sv, fid, deps)
        got = codec.pack_fetch(req, itab)
        assert got == codec.encode(wire.encode_fetch_request(req, itab))
        on_wire = wire.decode_body(body_of(got))
        assert sorted(on_wire) == ["deps", "fid", "t", "v", "var"]
        assert on_wire["var"] == (var if itab is None else itab.encode_var(var))
        decoded = wire.decode_message(body_of(got), ITAB, serving)
        via_dict = wire.decode_fetch_request(serving.restore(on_wire), ITAB)
        assert decoded == via_dict == req
        reply = FetchReply(
            var, value, None if wid is None else WriteId(*wid), sv, rq, fid, meta, applied
        )
        got = codec.pack_fetch_ok(reply, lean, itab)
        assert got == codec.encode(wire.encode_fetch_reply(reply, compact=lean, itab=itab))
        on_wire = wire.decode_body(body_of(got))
        assert not {"rq", "sv"} & set(on_wire)
        decoded = wire.decode_message(body_of(got), ITAB, asking)
        via_dict = wire.decode_fetch_reply(asking.restore(on_wire), ITAB)
        for out in (decoded, via_dict):
            assert type(out) is FetchReply
            assert (out.var, out.value, out.write_id) == (var, value, reply.write_id)
            assert (out.server, out.requester, out.fetch_id) == (sv, rq, fid)
            assert meta_equal(out.meta, meta) and out.applied == applied

    @settings(max_examples=60, deadline=None)
    @given(
        var=varnames, value=values, wid=st.tuples(sites, clocks), sv=sites,
        meta=st.one_of(st.none(), deplogs()),
        applied=st.one_of(st.none(), st.lists(clocks, max_size=8).map(tuple)),
        data=st.data(),
    )
    def test_wal_records(self, var, value, wid, sv, meta, applied, data):
        """The server's WAL records: pre-encoded bytes are what
        ``encode_record`` made of the frame dicts, and they replay (the
        generic decoder, no connection state) to those dicts."""
        codec = wire.BINARY_CODEC
        wid = WriteId(*wid)
        floor = data.draw(st.integers(min_value=0, max_value=wid.seq))
        reply = FetchReply(var, value, wid, sv, 0, 0, meta, applied)
        cases = [
            (
                codec.pack_wal_put(var, value, wid),
                wire.make_frame("wal.put", var=var, value=value, w=wire.encode_write_id(wid)),
            ),
            (
                codec.pack_wal_put(var, value, wid, floor),
                wire.make_frame(
                    "wal.put", var=var, value=value, w=wire.encode_write_id(wid),
                    fl=wid.seq - floor,
                ),
            ),
            (codec.pack_wal_read(var), wire.make_frame("wal.read", var=var)),
            (
                codec.pack_wal_rfetch(reply),
                wire.make_frame(
                    "wal.rfetch", var=var, value=value, w=wire.encode_write_id(wid),
                    sv=sv, meta=wire.encode_meta(meta), applied=wire.encode_meta(applied),
                ),
            ),
        ]
        for got, frame in cases:
            assert got == codec.encode(frame), frame["t"]
            assert wire.decode_message(body_of(got)) == frame  # not a hot kind: a dict


#: the link every valid body below was cut from: site 1 dialed site 2
SRC, DST = 1, 2


def _valid_bodies(codec):
    """One valid body per hot kind (the repl kinds stamped and not), as
    ``codec`` spells it on a link."""
    log = DepLog({(0, 300): 6, (1, 280): 0, (2, 290): 3, (3, 120): 0, (4, 270): 1})
    first = UpdateMessage("x1", "v", WriteId(1, 301), 1, 2, OptTrackMeta(301, 6, log))
    # two new records: the diff's ``n`` list is long enough for an int vector
    log2 = DepLog({**log.entries, (1, 302): 5, (5, 299): 2})
    second = UpdateMessage("x1", "v", WriteId(1, 302), 1, 2, OptTrackMeta(302, 6, log2))
    bodies = {}
    for issued in (None, 77.5):
        enc = wire.DeltaEncoder(ITAB, SRC, DST)
        for msg, ls in ((first, 200), (second, 201)):
            frame = enc.pack_update(msg, ls, issued, codec)
            bodies[wire.encoded_kind(frame)] = body_of(frame)
    reply = FetchReply("x1", "v", WriteId(1, 301), 2, 1, 400, log, (300, 280, 290, 120, 270))
    for frame in (
        wire.DeltaDecoder(SRC, DST).pack_ack(500, 3, codec),
        codec.pack_put("x1", "value", ITAB), codec.pack_put_ok(WriteId(1, 301)),
        codec.pack_get("zz_outside_table", ITAB), codec.pack_get_ok("value", WriteId(1, 301), 2),
        codec.pack_fetch(FetchRequest("x1", 1, 2, 400, ((0, 300), (2, 290))), ITAB),
        codec.pack_fetch_ok(reply, True, ITAB),
    ):
        bodies[wire.encoded_kind(frame)] = body_of(frame)
    assert sorted(bodies) == sorted(wire.HOT_KINDS)
    return bodies


VALID_BODIES = _valid_bodies(wire.BINARY_CODEC_V4)
#: the same frames from the plain encoder: its flat fixed-width int
#: vectors (``_T_INTLIST``) are still legal input on a connection
PLAIN_BODIES = _valid_bodies(wire.BINARY_CODEC)


def decode_fully(body, itab=ITAB, bodies=VALID_BODIES):
    """Both decode phases on a fresh link end, a delta against the
    chain it was cut from."""
    link = wire.DeltaDecoder(SRC, DST)
    message = wire.decode_message(body, itab, link)
    if isinstance(message, wire.ReplFrame):
        if message.delta:
            link.unpack_update(wire.decode_message(bodies["repl"], ITAB, link))
        return link.unpack_update(message)
    return message


class TestOnePassRejects:
    """Every check the dict decoders make survives, as ``WireError`` —
    never ``IndexError`` / ``struct.error`` / ``KeyError``."""

    @pytest.mark.parametrize("kind", sorted(wire.HOT_KINDS))
    def test_valid_bodies_are_lean(self, kind):
        # what the prefix / trailing-byte / corruption tests below cut
        # is what a connection carries: a body that opens with its tag
        body = VALID_BODIES[kind]
        assert body[0] & 0x80 and wire._FRAME_TYPES[body[0] & 0x7F] == kind
        assert PLAIN_BODIES[kind][0] == wire.BINARY_MAGIC

    @pytest.mark.parametrize("kind", sorted(wire.HOT_KINDS))
    def test_valid_bodies_decode(self, kind):
        decode_fully(VALID_BODIES[kind])
        decode_fully(PLAIN_BODIES[kind], bodies=PLAIN_BODIES)

    @pytest.mark.parametrize("kind", sorted(wire.HOT_KINDS))
    def test_every_strict_prefix(self, kind):
        body = VALID_BODIES[kind]
        for cut in range(len(body)):
            with pytest.raises(WireError):
                decode_fully(body[:cut])

    @pytest.mark.parametrize("kind", sorted(wire.HOT_KINDS))
    def test_one_trailing_byte(self, kind):
        for extra in (b"\x00", b"\x80", b"\xff"):
            with pytest.raises(WireError):
                decode_fully(VALID_BODIES[kind] + extra)

    @pytest.mark.parametrize("kind", sorted(wire.HOT_KINDS))
    def test_header_corruption(self, kind):
        # the full header (magic, schema version, tag) of the plain encoder
        body = PLAIN_BODIES[kind]
        bad = [bytes([wire.BINARY_MAGIC ^ flip]) + body[1:] for flip in (0x01, 0x80, 0xFF)]
        bad += [
            body[:1] + bytes([version]) + body[2:]
            # the frame schema byte is accepted at exactly one value
            for version in (
                0, wire.JSON_WIRE_VERSION - 1, wire.JSON_WIRE_VERSION + 1,
                wire.WIRE_VERSION, wire.WIRE_VERSION + 1, 0xFF,
            )
        ]
        # unregistered tags, with and without the schema bit; and this
        # kind's own tag without it (a map-shaped body these bytes are not)
        bad += [body[:2] + bytes([tag]) + body[3:] for tag in (0x7F, 0xFF, 0x70, body[2] & 0x7F)]
        # a lean body's one header byte, the same tags and the first
        # byte past the registry, with and without the schema bit
        lean = VALID_BODIES[kind]
        bad += [
            bytes([tag]) + lean[1:]
            for tag in (0x7F, 0xFF, 0x70, 0x24, 0xA4, lean[0] & 0x7F)
        ]
        for corrupt in bad:
            with pytest.raises(WireError):
                decode_fully(corrupt)

    @pytest.mark.parametrize("kind", sorted(wire.LINK_KINDS))
    def test_link_kinds_need_a_link(self, kind):
        """A chained scalar or an implied site with nothing to restore
        it from: the frame is refused, not guessed at."""
        with pytest.raises(WireError, match="no link.hello opened"):
            wire.decode_message(VALID_BODIES[kind], ITAB)
        with pytest.raises(WireError, match="no link.hello opened"):
            wire.decode_message(VALID_BODIES[kind], ITAB, None)

    @pytest.mark.parametrize("kind", ["repl", "repl.t", "repl.delta", "repl.delta.t", "fetch.ok"])
    def test_metadata_corruption(self, kind):
        # the bytes are unambiguous in these bodies: one schema tag per
        # metadata object, int vectors only inside them
        for body in (VALID_BODIES[kind], PLAIN_BODIES[kind]):
            at = body.index(bytes([0x60]))
            for sid in (len(wire._MAP_SCHEMAS), 0x7F, 0xFF):
                with pytest.raises(WireError):
                    decode_fully(body[: at + 1] + bytes([sid]) + body[at + 2 :])
        # the plain encoder's fixed-width vectors (varints: see below)
        at = body.index(bytes([0x48]))
        n, width = body[at + 1], body[at + 2]
        assert n >= 4 and width in (1, 2, 4, 8)
        for bad_width in (0, 3, 5, 16, 0xFF):
            with pytest.raises(WireError):
                decode_fully(body[: at + 2] + bytes([bad_width]) + body[at + 3 :])
        for bad_n in (n + 1, n + 40, 0xFE):
            with pytest.raises(WireError):
                decode_fully(body[: at + 1] + bytes([bad_n]) + body[at + 2 :])
        # a vector count that claims four more bytes of length prefix
        with pytest.raises(WireError):
            decode_fully(body[: at + 1] + b"\xff" + body[at + 2 :])

    def test_varint_vector_corruption(self):
        """Hostile varint vectors: the apply snapshot is the last thing
        in a ``fetch.ok`` body, so its bytes can be swapped whole."""
        body = VALID_BODIES["fetch.ok"]
        good = reference_varints([300, 0, 20, 10, 180, 30])  # ivr of the snapshot
        assert body.endswith(good)
        head = body[: -len(good)]
        decode_fully(head + reference_varints([5, 1, 2]))
        edge = b"\x72" + b"\xff" * 9 + b"\x01" + b"\xfe" + b"\xff" * 8 + b"\x01"
        assert decode_fully(head + edge).applied == (-(2**63) - (2**63 - 1),)
        for bad, why in (
            (b"\x71" + b"\x80" * 10 + b"\x01", "over-long"),       # 11 groups
            (b"\x71" + b"\xff" * 9 + b"\x03", "outside int64"),     # 65 bits
            (b"\x71" + b"\xff" * 9 + b"\x7f", "outside int64"),
            (b"\x71\x80", "truncated"),                             # continuation, then EOF
            (b"\x73\x02\x04", "truncated"),                         # count past the body
            (b"\x7f\xfe" + b"\x02" * 20, "truncated"),              # ... from 15 up
            (b"\x7f\xff\xff\xff\xff\xff\x02", "truncated"),         # ... and a 4-byte count
            (b"\x7f", "truncated"),
        ):
            with pytest.raises(WireError) as err:
                decode_fully(head + bad)
            assert why == "truncated" or why in str(err.value), (bad, err.value)
        # the generic (dict) decoder makes the same refusals
        for bad in (b"\x71" + b"\x80" * 10 + b"\x01", b"\x71" + b"\xff" * 9 + b"\x03", b"\x73\x02"):
            with pytest.raises(WireError):
                wire.decode_body(head + bad)

    def test_string_length_corruption(self):
        body = VALID_BODIES["put"]
        at = body.index(bytes([0x30]))  # the value string's tag
        for bad_n in (body[at + 1] + 1, body[at + 1] - 1, 0xFE):
            with pytest.raises(WireError):
                decode_fully(body[: at + 1] + bytes([bad_n]) + body[at + 2 :])

    def test_delta_without_baseline(self):
        for kind in ("repl.delta", "repl.delta.t"):
            dec = wire.DeltaDecoder(SRC, DST)
            parsed = wire.decode_message(VALID_BODIES[kind], ITAB, dec)
            with pytest.raises(WireError, match="no chain baseline"):
                dec.unpack_update(parsed)
            dec.unpack_update(wire.decode_message(VALID_BODIES["repl"], ITAB, dec))
            dec.unpack_update(parsed)  # against the frame it was cut from
            # a new handshake makes a new end: the old baseline is gone
            with pytest.raises(WireError, match="no chain baseline"):
                wire.DeltaDecoder(SRC, DST).unpack_update(parsed)

    def test_delta_against_the_wrong_baseline_kind(self):
        dec = wire.DeltaDecoder(SRC, DST)
        crp = UpdateMessage("x1", "v", WriteId(1, 9), 1, 2, CrpMeta(9, {0: 3}))
        head = wire.DeltaEncoder(None, SRC, DST).pack_update(crp, 1)
        dec.unpack_update(wire.decode_message(body_of(head), None, dec))
        with pytest.raises(WireError):
            dec.unpack_update(wire.decode_message(VALID_BODIES["repl.delta"], ITAB, dec))

    def test_interned_id_outside_the_table(self):
        small = wire.InternTable(["x0"])
        link = wire.DeltaDecoder(SRC, DST)
        for kind in ("repl", "repl.delta.t", "put", "fetch", "fetch.ok"):
            # the variable follows the one-byte lean header
            assert VALID_BODIES[kind][1] == 0x80 | ITAB.names.index("x1")
            with pytest.raises(WireError, match="outside the negotiated table"):
                wire.decode_message(VALID_BODIES[kind], small, link)
            with pytest.raises(WireError, match="without a table"):
                wire.decode_message(VALID_BODIES[kind], None, link)
        assert link._last_ls == 0  # a refused frame does not advance the chain

    def test_oversized_frames(self):
        big = "v" * (wire.MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="exceeds"):
            wire.BINARY_CODEC_V4.pack_put("x1", big, ITAB)
        with pytest.raises(WireError, match="exceeds"):
            wire.BINARY_CODEC_V4.pack_get_ok(big, None, 0)
        body = VALID_BODIES["put"]
        with pytest.raises(WireError, match="exceeds"):
            wire.decode_message(body + bytes(wire.MAX_FRAME_BYTES))

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(sorted(wire.HOT_KINDS)),
        edits=st.lists(
            st.tuples(st.integers(min_value=0, max_value=200), st.integers(0, 255)),
            min_size=1, max_size=4,
        ),
    )
    def test_arbitrary_corruption_only_ever_raises_wire_error(self, kind, edits):
        body = bytearray(VALID_BODIES[kind])
        for at, byte in edits:
            body[at % len(body)] = byte
        try:
            decode_fully(bytes(body))
        except WireError:
            pass


class TestIssueStamp:
    def test_visibility_mean_is_unbiased(self):
        """1 000 synthetic (issue, apply) pairs through the stamp the
        wire carries: the mean age must sit on the float-clock truth
        (the pre-fix reading — float now minus floored stamp — ran half
        a millisecond long)."""
        rng = np.random.default_rng(14)
        issue = rng.uniform(0.0, 60_000.0, 1000)
        latency = rng.uniform(0.0, 3.0, 1000)
        ages, biased = [], []
        for issued, applied in zip(issue, issue + latency):
            frame = stamped(wire.make_frame("repl", ls=1), float(issued))
            body = body_of(wire.BINARY_CODEC_V4.encode(frame))
            stamp = wire.strip_issue(wire.decode_body(body))
            ages.append(wire.issue_age_ms(stamp, float(applied)))
            biased.append(float(applied) - stamp)
        truth = float(latency.mean())
        assert abs(np.mean(ages) - truth) < 0.05
        assert np.mean(biased) - truth > 0.4
        assert all(age >= 0 and age == int(age) for age in ages)

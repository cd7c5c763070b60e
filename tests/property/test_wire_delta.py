"""Property: the chained link stream is a faithful transport.

A peer link chains ``repl.delta`` frames against the previous frame on
the same connection, sends ``ls`` as its advance and leaves the link's
two sites off the frame, interns variable names against a negotiated
table, and ships the metadata-lean ``ot4``/``dl4``/``ivr`` encodings.
None of that may change what the receiver reconstructs:

* a :class:`~repro.service.wire.DeltaEncoder` stream decoded by a
  :class:`~repro.service.wire.DeltaDecoder` through a real codec
  round-trip must equal the original message sequence, whatever mix of
  full and delta frames the encoder chose;
* a reconnect (frames dropped, the sender re-sends from the ack with a
  fresh chain) must restart with a full frame and still reconstruct the
  remainder exactly;
* an epoch reset (a fresh decoder: no baseline) must *reject* a
  chained frame with :class:`~repro.errors.WireError` — never guess —
  and resume once the sender restarts the chain;
* the compact metadata kinds must decode to the exact objects the plain
  kinds carry, for arbitrary logs, not just the well-behaved ones the
  protocol happens to produce;
* a chained frame is never longer than the full frame of the same
  message — the encoder's delta-or-full choice prices both honestly.

The chains are generated as a connection produces them — an evolving
dependency log mutated step by step — so both the profitable-delta path
and the wholesale-turnover fallback to full frames are exercised.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.log import DepLog
from repro.core.messages import CrpMeta, FetchReply, OptTrackMeta, UpdateMessage
from repro.errors import WireError
from repro.service import wire
from repro.types import WriteId
from tests.property.test_wire_codecs import update_streams

sites = st.integers(min_value=0, max_value=15)
clocks = st.integers(min_value=0, max_value=2**40)
masks = st.integers(min_value=0, max_value=2**32)
values = st.one_of(st.none(), st.integers(min_value=0, max_value=2**30), st.text(max_size=30))

#: the table a v4 handshake would advertise for an 8-name placement
ITAB_NAMES = wire.intern_table_names(f"x{i}" for i in range(8))
#: frames also carry names outside the negotiated table (post-cap
#: variables stay uninterned strings) — the chain must pass them through
VAR_POOL = list(ITAB_NAMES) + ["zz_outside_table"]


def roundtrip(frame, codec=None):
    encoded = (codec or wire.BINARY_CODEC_V4).encode(frame)
    assert wire.frame_length(encoded[:4]) == len(encoded) - 4
    return wire.decode_body(encoded[4:])


def meta_equal(a, b):
    if isinstance(a, DepLog):
        return isinstance(b, DepLog) and a.entries == b.entries
    if isinstance(a, OptTrackMeta):
        return (
            isinstance(b, OptTrackMeta)
            and (a.clock, a.replicas_mask) == (b.clock, b.replicas_mask)
            and a.log.entries == b.log.entries
        )
    return a == b


def assert_messages_equal(out, msg):
    assert (out.var, out.value) == (msg.var, msg.value)
    assert (out.write_id, out.sender, out.dest) == (
        msg.write_id,
        msg.sender,
        msg.dest,
    )
    assert meta_equal(out.meta, msg.meta)


@st.composite
def deplogs(draw):
    entries = draw(
        st.dictionaries(st.tuples(sites, clocks), masks, min_size=0, max_size=8)
    )
    return DepLog(dict(entries))


@st.composite
def update_chains(draw):
    """A message sequence the way one peer link produces it: one sender,
    a monotonically advancing clock, a dependency log that mostly evolves
    incrementally (add a record, reprune a destination set, retire a
    record) but occasionally churns wholesale — the case where the delta
    costs more than the full encoding and the encoder must fall back."""
    sender, dest = draw(sites), draw(sites)
    clock = draw(st.integers(min_value=0, max_value=2**20))
    entries = dict(
        draw(st.dictionaries(st.tuples(sites, clocks), masks, max_size=6))
    )
    msgs = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        clock += draw(st.integers(min_value=1, max_value=4))
        entries = dict(entries)
        op = draw(st.sampled_from(["add", "add", "reprune", "retire", "churn"]))
        if op in ("reprune", "retire") and not entries:
            op = "add"
        if op == "add":
            entries[(sender, clock)] = draw(masks)
        elif op == "reprune":
            entries[draw(st.sampled_from(sorted(entries)))] = draw(masks)
        elif op == "retire":
            del entries[draw(st.sampled_from(sorted(entries)))]
        else:
            entries = dict(
                draw(st.dictionaries(st.tuples(sites, clocks), masks, max_size=6))
            )
        derivable = draw(st.booleans())
        msgs.append(
            UpdateMessage(
                var=draw(st.sampled_from(VAR_POOL)),
                value=draw(values),
                write_id=WriteId(sender, clock)
                if derivable
                else WriteId(draw(sites), draw(clocks)),
                sender=sender,
                dest=dest,
                meta=OptTrackMeta(
                    clock=clock,
                    replicas_mask=draw(masks),
                    log=DepLog(entries),
                ),
            )
        )
    return msgs


@st.composite
def tight_chains(draw):
    """Chains where full and delta price within a byte of each other:
    small clocks (a one-byte ``c`` either way), short logs, and mostly
    PURGE-retention records (newest of their sender, no destinations) —
    the two-int records a three-ints-per-record estimate over-prices."""
    dests = st.sampled_from([0, 0, 0, 3, 5, 2**20])
    clock = draw(st.integers(min_value=5, max_value=60))
    records = st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(1, clock)), dests, max_size=5
    )
    entries = draw(records)
    msgs = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        clock += 1
        entries = {
            key: draw(dests) if draw(st.booleans()) else d
            for key, d in entries.items()
            if draw(st.integers(0, 9)) >= 3
        }
        if draw(st.booleans()):
            entries[(1, clock)] = draw(dests)
        msgs.append(
            UpdateMessage(
                "x1", "v", WriteId(1, clock), 1, 2,
                OptTrackMeta(clock, 6, DepLog(dict(entries))),
            )
        )
    return msgs


def link_ends(chain, itab=None):
    """Both ends of a fresh connection of the link ``chain`` travels."""
    sites_ = chain[0].sender, chain[0].dest
    return wire.DeltaEncoder(itab, *sites_), wire.DeltaDecoder(*sites_)


class TestDeltaChain:
    @settings(max_examples=150, deadline=None)
    @given(chain=update_chains(), ls0=clocks)
    def test_chain_equals_original_stream(self, chain, ls0):
        itab = wire.InternTable(ITAB_NAMES)
        enc, dec = link_ends(chain, itab)
        for ls, msg in enumerate(chain, start=ls0):
            frame = roundtrip(enc.encode_update(msg, ls))
            assert frame["t"] in ("repl", "repl.delta")
            assert "src" not in frame and "dst" not in frame
            if ls == ls0:
                # a fresh chain has no baseline: first frame always
                # full, its sequence number absolute
                assert (frame["t"], frame["ls"]) == ("repl", ls0)
            else:
                assert frame["ls"] == 1
            assert dec.restore(frame)["ls"] == ls
            out = dec.decode_update(frame, itab)
            assert_messages_equal(out, msg)

    @settings(max_examples=300, deadline=None)
    @given(chain=st.one_of(update_chains(), tight_chains()))
    @example(
        # a delta of 5 ints against a full frame of 5 — not 6: one of
        # its two records is a retention pair.  The 3-per-record
        # estimate sent the delta, one byte longer than the full frame
        chain=[
            UpdateMessage("x1", "v", WriteId(1, c), 1, 2, OptTrackMeta(c, 6, DepLog(e)))
            for c, e in (
                (31, {(4, 12): 5}),
                (32, {(4, 12): 0, (1, 32): 5}),
            )
        ]
    )
    def test_chained_frame_never_longer_than_the_full_frame(self, chain):
        """Delta or full is a price comparison: whatever the encoder
        chains must not exceed the full spelling of the same message
        (the scalars cost one byte either way here: ``ls`` advances by
        one from 0, the stamp stays 0)."""
        itab = wire.InternTable(ITAB_NAMES)
        enc, _ = link_ends(chain, itab)
        for ls, msg in enumerate(chain, start=1):
            chained = enc.pack_update(msg, ls, 0.0)
            full = link_ends(chain, itab)[0].pack_update(msg, 1, 0.0)
            assert wire.encoded_kind(full) == "repl.t"
            assert len(chained) <= len(full), wire.encoded_kind(chained)

    @settings(max_examples=150, deadline=None)
    @given(stream=update_streams())
    def test_no_metadata_family_chains_at_a_loss(self, stream):
        """The same price rule over every family with a diff (``crpd``,
        ``mcd``) and the ones without (always full)."""
        chain, _ = stream
        enc, _ = link_ends(chain)
        for ls, msg in enumerate(chain, start=1):
            chained = enc.pack_update(msg, ls)
            full = link_ends(chain)[0].pack_update(msg, 1)
            assert len(chained) <= len(full), wire.encoded_kind(chained)

    @settings(max_examples=100, deadline=None)
    @given(chain=update_chains(), data=st.data())
    def test_reconnect_restarts_chain_exactly(self, chain, data):
        """Frames after a cut point are lost; the sender reconnects and
        re-sends the tail from the ack on a fresh connection (new encoder
        and decoder, as the link teardown produces).  The receiver's
        total decoded sequence must still equal the original."""
        cut = data.draw(st.integers(min_value=0, max_value=len(chain)))
        itab = wire.InternTable(ITAB_NAMES)
        enc, dec = link_ends(chain, itab)
        decoded = []
        for ls, msg in enumerate(chain[:cut], start=1):
            frame = dec.restore(roundtrip(enc.encode_update(msg, ls, 10.0 * ls)))
            decoded.append(dec.decode_update(frame, itab))
        enc, dec = link_ends(chain, itab)
        for ls, msg in enumerate(chain[cut:], start=cut + 1):
            frame = roundtrip(enc.encode_update(msg, ls, 10.0 * ls))
            if ls == cut + 1:
                # the first frame after the handshake: full, and
                # absolute in every chained field
                assert (frame["t"], frame["ls"], frame["it"]) == ("repl.t", ls, 10 * ls)
            else:
                assert (frame["ls"], frame["it"]) == (1, 10)
            dec.restore(frame)
            assert (frame["ls"], frame["it"]) == (ls, 10 * ls)
            assert (frame["src"], frame["dst"]) == (chain[0].sender, chain[0].dest)
            decoded.append(dec.decode_update(frame, itab))
        assert len(decoded) == len(chain)
        for out, msg in zip(decoded, chain):
            assert_messages_equal(out, msg)

    @settings(max_examples=100, deadline=None)
    @given(chain=update_chains(), data=st.data())
    def test_epoch_reset_then_resume(self, chain, data):
        """A new sender epoch arrives with a new handshake, so the
        receiver holds a fresh chain end with no baseline: a chained
        frame of the old connection must be rejected by it, and a
        restarted chain must decode the rest exactly."""
        cut = data.draw(st.integers(min_value=0, max_value=len(chain) - 1))
        enc, dec = link_ends(chain)
        for ls, msg in enumerate(chain[:cut], start=1):
            dec.decode_update(roundtrip(enc.encode_update(msg, ls)), None)
        _, dec = link_ends(chain)
        frame = roundtrip(enc.encode_update(chain[cut], cut + 1))
        if frame["t"] == "repl.delta":
            with pytest.raises(WireError):
                dec.decode_update(frame, None)
        # the sender restarts its chain (what the reconnect handshake
        # forces, on both ends); decoding resumes and reconstructs the
        # tail, its first sequence number absolute again
        enc, dec = link_ends(chain)
        for ls, msg in enumerate(chain[cut:], start=cut + 1):
            frame = dec.restore(roundtrip(enc.encode_update(msg, ls)))
            assert frame["ls"] == ls
            assert_messages_equal(dec.decode_update(frame, None), msg)


class TestDeltaChainEdges:
    def _pair(self):
        log = DepLog({(0, 17): 6, (1, 40): 5, (2, 9): 3, (3, 30): 0})
        return (
            UpdateMessage(
                var="x1",
                value="a",
                write_id=WriteId(1, 41),
                sender=1,
                dest=2,
                meta=OptTrackMeta(clock=41, replicas_mask=6, log=log),
            ),
            UpdateMessage(
                var="x1",
                value="b",
                write_id=WriteId(1, 42),
                sender=1,
                dest=2,
                meta=OptTrackMeta(
                    clock=42,
                    replicas_mask=6,
                    log=DepLog({**log.entries, (1, 42): 4}),
                ),
            ),
        )

    def test_delta_without_baseline_rejected(self):
        first, second = self._pair()
        enc = wire.DeltaEncoder()
        enc.encode_update(first, 1)
        frame = enc.encode_update(second, 2)
        assert frame["t"] == "repl.delta"
        with pytest.raises(WireError):
            wire.DeltaDecoder().decode_update(roundtrip(frame), None)

    def test_delta_against_wrong_kind_rejected(self):
        first, second = self._pair()
        enc = wire.DeltaEncoder()
        enc.encode_update(first, 1)
        delta = enc.encode_update(second, 2)
        assert delta["t"] == "repl.delta"
        dec = wire.DeltaDecoder()
        # baseline of a different metadata kind: the chain must refuse
        # to apply an ot-shaped diff to it
        dec.decode_update(
            roundtrip(
                wire.encode_update(
                    UpdateMessage(
                        var="y",
                        value=None,
                        write_id=WriteId(0, 5),
                        sender=0,
                        dest=1,
                        meta=CrpMeta(clock=5, log={0: 5}),
                    ),
                    1,
                )
            ),
            None,
        )
        with pytest.raises(WireError):
            dec.decode_update(roundtrip(delta), None)

    def test_interned_id_without_table_rejected(self):
        first, _ = self._pair()
        itab = wire.InternTable(ITAB_NAMES)
        frame = roundtrip(wire.DeltaEncoder(itab).encode_update(first, 1))
        assert isinstance(frame["var"], int)
        with pytest.raises(WireError):
            wire.DeltaDecoder().decode_update(frame, None)

    def test_interned_id_outside_table_rejected(self):
        itab = wire.InternTable(ITAB_NAMES)
        with pytest.raises(WireError):
            itab.decode_var(len(ITAB_NAMES))


class TestCompactMetadataKinds:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["ot", "dl"]),
        clock=clocks,
        rm=masks,
        log=deplogs(),
        codec=st.sampled_from([wire.BINARY_CODEC, wire.BINARY_CODEC_V4]),
    )
    def test_compact_kinds_decode_exactly(self, kind, clock, rm, log, codec):
        """``ot4``/``dl4`` are pure re-encodings: for *arbitrary* logs —
        clocks above the meta clock (negative offsets), empty logs,
        non-empty newest records — compact and plain decode to equal
        objects through either encoder — ``BINARY_CODEC`` (WAL
        records) and ``BINARY_CODEC_V4`` (the wire)."""
        meta = OptTrackMeta(clock=clock, replicas_mask=rm, log=log) if kind == "ot" else log
        plain = wire.encode_meta(meta, compact=False)
        compact = wire.encode_meta(meta, compact=True)
        assert compact["k"] == ("ot4" if kind == "ot" else "dl4")
        frame = wire.make_frame("fetch.ok", var="x", value=None, meta=compact)
        via_codec = roundtrip(frame, codec)["meta"]
        assert meta_equal(wire.decode_meta(via_codec), meta)
        assert meta_equal(wire.decode_meta(plain), meta)

    @settings(max_examples=150, deadline=None)
    @given(
        var=st.sampled_from(VAR_POOL),
        value=values,
        applied=st.lists(clocks, min_size=0, max_size=10),
        log=deplogs(),
        wid=st.one_of(st.none(), st.tuples(sites, clocks)),
        codec=st.sampled_from([wire.BINARY_CODEC, wire.BINARY_CODEC_V4]),
    )
    def test_compact_fetch_reply_roundtrip(self, var, value, applied, log, wid, codec):
        """The compact fetch.ok — interned var, ``dl4`` log, ``ivr``
        apply snapshot — reconstructs the exact reply, including the
        empty-snapshot and uninterned-name edges."""
        reply = FetchReply(
            var=var,
            value=value,
            write_id=WriteId(*wid) if wid else None,
            server=3,
            requester=5,
            fetch_id=9,
            meta=log,
            applied=tuple(applied),
        )
        itab = wire.InternTable(ITAB_NAMES)
        frame = wire.encode_fetch_reply(reply, compact=True, itab=itab)
        assert isinstance(frame["var"], int) == (var in ITAB_NAMES)
        assert frame["applied"]["k"] == "ivr"
        # server and requester are the link's: site 5 dialed site 3
        asking = wire.DeltaEncoder(itab, 5, 3)
        out = wire.decode_fetch_reply(asking.restore(roundtrip(frame, codec)), itab)
        assert (out.var, out.value, out.write_id) == (var, value, reply.write_id)
        assert (out.server, out.requester, out.fetch_id) == (3, 5, 9)
        assert meta_equal(out.meta, log)
        assert out.applied == tuple(applied)

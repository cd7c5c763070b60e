"""Property: the WAL record layer is faithful and prefix-stable.

Any sequence of frames the durability layer can log round-trips
bit-exactly through ``encode_record``/``decode_records``; truncating the
byte stream at ANY point — the crash model — yields a strict prefix of
those frames, never an error and never a reordered or invented record;
and flipping any single payload byte of a complete record is always
caught by the CRC, never silently decoded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import FetchReply
from repro.service import wire
from repro.service.durability import (
    WalCorruptionError,
    decode_records,
    encode_raw_record,
    encode_record,
)
from repro.types import WriteId

_CRC = 4   # crc32 prefix per record
_LEN = 4   # binary-codec length prefix per frame

sites = st.integers(min_value=0, max_value=63)
clocks = st.integers(min_value=1, max_value=2**40)
varnames = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=12
)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=80),
)


@st.composite
def wal_frames(draw):
    """Frames shaped like what the server actually appends."""
    kind = draw(st.sampled_from(["wal.put", "wal.read", "wal.hello", "sys.digest"]))
    if kind == "wal.put":
        return wire.make_frame(
            "wal.put",
            var=draw(varnames),
            value=draw(values),
            w=wire.encode_write_id(WriteId(draw(sites), draw(clocks))),
        )
    if kind == "wal.read":
        return wire.make_frame("wal.read", var=draw(varnames))
    if kind == "wal.hello":
        return wire.make_frame(
            "wal.hello", src=draw(sites), epoch=draw(clocks)
        )
    flat = draw(
        st.lists(st.tuples(sites, clocks), min_size=0, max_size=6)
    )
    return wire.make_frame(
        "sys.digest", src=draw(sites), d=[x for pair in flat for x in pair]
    )


frame_lists = st.lists(wal_frames(), min_size=0, max_size=8)


@settings(max_examples=120, deadline=None)
@given(frames=frame_lists)
def test_round_trip_is_exact(frames):
    data = b"".join(encode_record(f) for f in frames)
    decoded, valid = decode_records(data)
    assert valid == len(data)
    assert decoded == [
        wire.decode_body(wire.BINARY_CODEC.encode(f)[_LEN:]) for f in frames
    ]


@settings(max_examples=120, deadline=None)
@given(frames=frame_lists, data=st.data())
def test_any_truncation_yields_a_prefix(frames, data):
    blob = b"".join(encode_record(f) for f in frames)
    k = data.draw(st.integers(min_value=0, max_value=len(blob)))
    whole, _ = decode_records(blob)
    decoded, valid = decode_records(blob[:k])
    assert valid <= k
    # a torn stream is always a strict prefix of the full decode —
    # truncation can lose records but never corrupt, reorder, or invent
    assert decoded == whole[: len(decoded)]
    # and the valid prefix re-decodes cleanly as a non-final segment
    again, _ = decode_records(blob[:valid], allow_torn_tail=False)
    assert again == decoded


@settings(max_examples=120, deadline=None)
@given(frame=wal_frames(), data=st.data())
def test_single_byte_payload_flip_is_always_caught(frame, data):
    blob = bytearray(encode_record(frame))
    # flip strictly inside the payload, past the crc and length prefix:
    # the record stays complete, so decode must refuse — CRC32 catches
    # every single-byte error
    lo = _CRC + _LEN
    pos = data.draw(st.integers(min_value=lo, max_value=len(blob) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    blob[pos] ^= flip
    with pytest.raises(WalCorruptionError):
        decode_records(bytes(blob), allow_torn_tail=False)


# ----------------------------------------------------------------------
# the file format, held by bytes
# ----------------------------------------------------------------------
# docs/durability.md promises that a data directory written by an older
# build recovers unchanged.  These are the bytes of one: site 2 of a
# three-site Opt-Track cluster (rf 2), written by the last build that
# spoke WIRE_VERSION 4 — a committed snapshot (one parked update, one
# unacked own write) and the WAL suffix behind it, holding every record
# kind a server appends, the two raw-passthrough kinds (``repl.t`` /
# ``repl``: a self-contained frame logged as it came off the wire)
# included.  Each record is (hex of the whole record, crc first; the
# frame it held).  Nothing here may change when the wire version does:
# ``tests/integration/test_service_recovery.py`` recovers a site from
# exactly these bytes.
PARENT_INCARNATION = b"1\n"
PARENT_SEGMENT = "wal.000002"
PARENT_WAL = (
    (
        "9cafe75c00000005b3029b8186",
        {"v": 2, "t": "wal.hello", "src": 1, "epoch": 6},
    ),
    (
        "1bc7ea020000001ab3029a300278343001624002818281826000828640038181"
        "8481",
        {"v": 2,
         "t": "wal.repl",
         "var": "x4",
         "value": "b",
         "w": [1, 2],
         "src": 1,
         "dst": 2,
         "meta": {"k": "ot", "c": 2, "rm": 6, "log": [1, 1, 4]},
         "ls": 1},
    ),
    (
        "8a6d04b10000001bb3029a300278343002623240028183818260008386400381"
        "828482",
        {"v": 2,
         "t": "wal.repl",
         "var": "x4",
         "value": "b2",
         "w": [1, 3],
         "src": 1,
         "dst": 2,
         "meta": {"k": "ot", "c": 3, "rm": 6, "log": [1, 2, 4]},
         "ls": 2},
    ),
    (
        "71781bc00000001fb30297300278323001644002808380826000838548060100"
        "020401020083a8",
        {"v": 2,
         "t": "repl.t",
         "var": "x2",
         "value": "d",
         "w": [0, 3],
         "src": 0,
         "dst": 2,
         "meta": {"k": "ot", "c": 3, "rm": 5, "log": [0, 2, 4, 1, 2, 0]},
         "ls": 3,
         "it": 40},
    ),
    (
        "790069ae0000001eb30281300278353001654002808480826000848548060100"
        "030401020084",
        {"v": 2,
         "t": "repl",
         "var": "x5",
         "value": "e",
         "w": [0, 4],
         "src": 0,
         "dst": 2,
         "meta": {"k": "ot", "c": 4, "rm": 5, "log": [0, 3, 4, 1, 2, 0]},
         "ls": 4},
    ),
    (
        "c182776700000016b302993002783130096f776e2d616674657240028282",
        {"v": 2,
         "t": "wal.put",
         "var": "x1",
         "value": "own-after",
         "w": [2, 2]},
    ),
    (
        "6b1b9dc000000007b3029c30027835",
        {"v": 2, "t": "wal.read", "var": "x5"},
    ),
    (
        "07579b3a00000024b3029d300278303001714002808580600248090100040400"
        "050201020060064003858081",
        {"v": 2,
         "t": "wal.rfetch",
         "var": "x0",
         "value": "q",
         "w": [0, 5],
         "sv": 0,
         "meta": {"k": "dl", "e": [0, 4, 4, 0, 5, 2, 1, 2, 0]},
         "applied": {"k": "ivec", "v": [5, 0, 1]}},
    ),
)
PARENT_SNAP = (
    "0b93dde8000001a9b3021e500a300473697465823003696e638130076170706c"
    "69657382300570726f746f5009300676616c7565735004300278314002300161"
    "40028181300278324002300a6f776e2d6265666f726540028281300278344002"
    "0000300278354002000030047773657181300466736571803004636f6e668030"
    "026163400381818130036c6f67400382818130026c7750023002783140038181"
    "8230027832400382818130046365696c50023002783140028181300278324804"
    "010001020130056b6e6f776e0030047365656e48040100020101300665706f63"
    "6873480401004d010530066f726967696e48060100010101020130067061726b"
    "656440014003808250093001768230017430047265706c300376617230027835"
    "300576616c75653001633001774002808230037372638030036473748230046d"
    "6574616000828548060100010401020430026c738230036f776e400150093001"
    "768230017430047265706c300376617230027832300576616c7565300a6f776e"
    "2d6265666f72653001774002828130037372638230036473748030046d657461"
    "60008185400030026c7380300373656781",
    {"v": 2,
     "t": "snap",
     "site": 2,
     "inc": 1,
     "applies": 2,
     "proto": {"values": {"x1": ["a", [1, 1]],
                          "x2": ["own-before", [2, 1]],
                          "x4": [None, None],
                          "x5": [None, None]},
               "wseq": 1,
               "fseq": 0,
               "conf": 0,
               "ac": [1, 1, 1],
               "log": [2, 1, 1],
               "lw": {"x1": [1, 1, 2], "x2": [2, 1, 1]},
               "ceil": {"x1": [1, 1], "x2": [0, 1, 2, 1]},
               "known": None},
     "seen": [0, 2, 1, 1],
     "epochs": [0, 77, 1, 5],
     "origin": [0, 1, 1, 1, 2, 1],
     "parked": [[0, 2,
                 {"v": 2,
                  "t": "repl",
                  "var": "x5",
                  "value": "c",
                  "w": [0, 2],
                  "src": 0,
                  "dst": 2,
                  "meta": {"k": "ot",
                           "c": 2,
                           "rm": 5,
                           "log": [0, 1, 4, 1, 2, 4]},
                  "ls": 2}]],
     "own": [{"v": 2,
              "t": "repl",
              "var": "x2",
              "value": "own-before",
              "w": [2, 1],
              "src": 2,
              "dst": 0,
              "meta": {"k": "ot", "c": 1, "rm": 5, "log": []},
              "ls": 0}],
     "seg": 1},
)


def parent_records():
    return [
        pytest.param(bytes.fromhex(h), frame, id=f"{i}-{frame['t']}")
        for i, (h, frame) in enumerate(PARENT_WAL + (PARENT_SNAP,))
    ]


def test_parent_bytes_hold_one_record_of_every_kind():
    kinds = [frame["t"] for _, frame in PARENT_WAL]
    assert sorted(set(kinds)) == [
        "repl", "repl.t", "wal.hello", "wal.put", "wal.read", "wal.repl",
        "wal.rfetch",
    ]
    assert PARENT_SNAP[1]["t"] == "snap"


@pytest.mark.parametrize("record,frame", parent_records())
def test_parent_records_decode_to_the_frames_they_held(record, frame):
    decoded, valid = decode_records(record, allow_torn_tail=False)
    assert (decoded, valid) == ([frame], len(record))


@pytest.mark.parametrize("record,frame", parent_records())
def test_todays_encoders_write_the_parent_bytes(record, frame):
    kind = frame["t"]
    if not kind.startswith("repl"):
        assert encode_record(frame) == record
    # a raw record wraps a frame body as it crossed the wire
    assert encode_raw_record(record[_CRC + _LEN:]) == record
    # the one-pass encoders the server appends with (crc aside)
    codec = wire.BINARY_CODEC
    payload = record[_CRC:]
    if kind == "wal.put":
        wid = wire.decode_write_id(frame["w"])
        assert codec.pack_wal_put(frame["var"], frame["value"], wid) == payload
    elif kind == "wal.read":
        assert codec.pack_wal_read(frame["var"]) == payload
    elif kind in ("wal.repl", "repl", "repl.t"):
        # the plain codec still spells a self-contained repl frame the
        # way the parent's link did (these vectors are all one byte wide)
        msg = wire.decode_update(frame)
        packed = codec.pack_update(
            msg, frame["ls"], frame.get("it"), wal=kind == "wal.repl"
        )
        assert packed == payload
    elif kind == "wal.rfetch":
        reply = FetchReply(
            frame["var"], frame["value"], wire.decode_write_id(frame["w"]),
            frame["sv"], 0, 0, wire.decode_meta(frame["meta"]),
            wire.decode_meta(frame["applied"]),
        )
        assert codec.pack_wal_rfetch(reply) == payload

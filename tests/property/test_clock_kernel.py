"""Property tests of the packed-lane :class:`VectorClock` against the numpy
spelling it replaced: every operation must return what ``int64`` arrays
return, at every width 1..64, with entries that sit on lane boundaries —
and an entry that would leave its lane must raise, never reach into the
neighbouring entry."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import ProtocolConfig
from repro.core.clocks import VectorClock
from repro.core.optp import OptPProtocol
from repro.errors import ConfigurationError
from repro.service import wire

LANE_MAX = 2**63 - 1

#: 0, small counts, the 32-bit and 48-bit boundaries a narrower lane would
#: have, and the last values a lane holds
entries = st.one_of(
    st.sampled_from(
        [0, 1, 2, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**47, 2**48 - 1,
         2**62, LANE_MAX - 1, LANE_MAX]
    ),
    st.integers(min_value=0, max_value=LANE_MAX),
    st.integers(min_value=0, max_value=40),
)


@st.composite
def vector_pairs(draw):
    """``(a, b, j)``: two equally wide entry lists and a slot; half the
    time ``b`` is derived from ``a`` so that equal slots, the one-ahead
    slot and dominance actually occur."""
    n = draw(st.integers(min_value=1, max_value=64))
    a = draw(st.lists(entries, min_size=n, max_size=n))
    if draw(st.booleans()):
        b = draw(st.lists(entries, min_size=n, max_size=n))
    else:
        bump = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n, max_size=n))
        b = [min(x + d, LANE_MAX) for x, d in zip(a, bump)]
    j = draw(st.integers(min_value=0, max_value=n - 1))
    if draw(st.booleans()) and a[j] < LANE_MAX:
        b[j] = a[j] + 1
    return a, b, j


def both(values):
    return VectorClock(len(values), values), np.array(values, dtype=np.int64)


class TestAgainstNumpy:
    @given(vector_pairs())
    def test_whole_vector_compares(self, pair):
        (a, na), (b, nb) = both(pair[0]), both(pair[1])
        assert (a <= b) == bool(np.all(na <= nb))
        assert a.dominates(b) == bool(np.all(na >= nb))
        assert (a == b) == bool(np.array_equal(na, nb))

    @given(vector_pairs())
    def test_one_slot_short(self, pair):
        (a, na), (b, nb), j = both(pair[0]), both(pair[1]), pair[2]
        expected = bool(na[j] == nb[j] - 1 and np.count_nonzero(na < nb) == 1)
        assert a.admits(b, j) == expected

    @given(vector_pairs())
    def test_short_slots_first_to_last(self, pair):
        (a, na), (b, nb) = both(pair[0]), both(pair[1])
        assert a.short_slots(b) == np.nonzero(na < nb)[0].tolist()

    @given(vector_pairs())
    def test_merge_is_slotwise_max(self, pair):
        (a, na), (b, nb) = both(pair[0]), both(pair[1])
        a.merge(b)
        assert a.v == tuple(np.maximum(na, nb).tolist())
        assert b.v == tuple(pair[1])  # the argument is untouched

    @given(vector_pairs())
    def test_item_read_and_increment(self, pair):
        values, _, j = pair
        a, na = both(values)
        assert [a[k] for k in range(a.n)] == values == list(a.v)
        if values[j] == LANE_MAX:
            with pytest.raises(OverflowError):
                a.increment(j)
            assert list(a.v) == values  # nothing moved, no neighbour touched
        else:
            a.increment(j)
            na[j] += 1
            assert a.v == tuple(na.tolist())

    @given(vector_pairs())
    def test_copies_share_nothing_mutable(self, pair):
        values, other, j = pair
        a = VectorClock(len(values), values)
        frozen, loose = a.frozen_copy(), a.copy()
        a.merge(VectorClock(len(other), other))
        loose.merge(VectorClock(len(other), other))
        assert frozen.v == tuple(values)
        assert loose == a


class TestLaneBounds:
    @pytest.mark.parametrize("bad", [-1, LANE_MAX + 1, 2**64, 2**64 + 5, 1.5])
    def test_entry_outside_lane_rejected(self, bad):
        for n, slot in ((1, 0), (3, 1), (64, 63)):
            values = [7] * n
            values[slot] = bad
            with pytest.raises(OverflowError):
                VectorClock(n, values)

    def test_neighbours_survive_a_full_lane(self):
        c = VectorClock(3, [LANE_MAX, LANE_MAX - 1, LANE_MAX])
        c.increment(1)
        assert c.v == (LANE_MAX,) * 3
        for j in range(3):
            with pytest.raises(OverflowError):
                c.increment(j)
        assert c.v == (LANE_MAX,) * 3

    def test_slot_index_checked(self):
        c = VectorClock(3)
        for j in (-1, 3):
            with pytest.raises(IndexError):
                c.increment(j)
            with pytest.raises(IndexError):
                c[j]
        assert c.v == (0, 0, 0)

    def test_widths_do_not_mix(self):
        a, b = VectorClock(3, [1, 2, 3]), VectorClock(4, [1, 2, 3, 0])
        for op in (a.merge, a.__le__, a.dominates, a.short_slots):
            with pytest.raises(ConfigurationError):
                op(b)
        with pytest.raises(ConfigurationError):
            a.admits(b, 0)
        assert a != b


class TestFrozenSnapshot:
    def test_no_public_path_mutates_a_frozen_copy(self):
        a = VectorClock(3, [4, 5, 6])
        f = a.frozen_copy()
        with pytest.raises(ValueError):
            f.increment(0)
        with pytest.raises(ValueError):
            f.merge(VectorClock(3, [9, 9, 9]))
        with pytest.raises(TypeError):
            f.v[0] = 9
        with pytest.raises(AttributeError):
            f.v = (9, 9, 9)
        a.increment(0)
        a.merge(VectorClock(3, [9, 9, 9]))
        assert f.v == (4, 5, 6)
        # a copy of a frozen snapshot is an ordinary clock again
        thawed = f.copy()
        thawed.increment(2)
        assert thawed.v == (4, 5, 7) and f.v == (4, 5, 6)


class TestPlainDataBoundaries:
    """What leaves the process is what the numpy clocks wrote: plain int
    lists in snapshots, the same ``vc`` kind on the wire."""

    @settings(max_examples=50)
    @given(vector_pairs())
    def test_state_snapshot_roundtrip(self, pair):
        wc, ac, _ = pair
        n = len(wc)
        config = ProtocolConfig(n=n, site=0, replicas_of={"x": tuple(range(n))})
        proto = OptPProtocol(config)
        proto.write_clock = VectorClock(n, wc)
        proto.apply_counts = VectorClock(n, ac)
        proto.last_write_on["x"] = proto.write_clock.frozen_copy()
        snap = proto.state_snapshot()
        assert snap["wc"] == wc and snap["ac"] == ac and snap["lw"] == {"x": wc}
        assert all(type(c) is int for c in snap["wc"] + snap["ac"])
        restored = OptPProtocol(config)
        restored.state_restore(json.loads(json.dumps(snap)))
        assert restored.write_clock == proto.write_clock
        assert restored.apply_counts == proto.apply_counts
        assert restored.last_write_on == proto.last_write_on
        assert restored.state_snapshot() == snap

    def test_snapshot_is_the_parent_commits(self):
        # literal captured from the numpy-backed implementation
        config = ProtocolConfig(n=3, site=1, replicas_of={"x": (0, 1, 2)})
        proto = OptPProtocol(config)
        proto.write("x", "v1")
        proto.read_local("x")
        proto.write("x", "v2")
        assert proto.state_snapshot() == {
            "values": {"x": ["v2", [1, 2]]},
            "wseq": 2,
            "fseq": 0,
            "conf": 0,
            "wc": [0, 2, 0],
            "ac": [0, 2, 0],
            "lw": {"x": [0, 2, 0]},
        }

    @settings(max_examples=50)
    @given(vector_pairs())
    def test_vc_wire_kind_roundtrip(self, pair):
        clock = VectorClock(len(pair[0]), pair[0])
        tagged = wire.encode_meta(clock)
        for codec in (wire.JSON_CODEC, wire.BINARY_CODEC, wire.BINARY_CODEC_V4):
            body = wire.encode_frame(wire.make_frame("x", m=tagged), codec)[4:]
            out = wire.decode_meta(wire.decode_body(body)["m"])
            assert isinstance(out, VectorClock) and out == clock

    def test_vc_wire_bytes_are_the_parent_commits(self):
        # bytes captured from the numpy-backed implementation
        clock = VectorClock(4, [1, 0, 2**40, 5])
        frame = wire.make_frame("x", m=wire.encode_meta(clock))
        assert wire.encode_frame(frame, wire.JSON_CODEC).hex() == JSON_VC_HEX
        assert wire.encode_frame(frame, wire.BINARY_CODEC).hex() == BINARY_VC_HEX
        # connections spell the same vector in varints since WIRE_VERSION
        # 5, behind the one-byte lean header since 6
        assert wire.encode_frame(frame, wire.BINARY_CODEC_V4).hex() == VARINT_VC_HEX


JSON_VC_HEX = (
    "000000387b2276223a322c2274223a2278222c226d223a7b226b223a227663222c2276"
    "223a5b312c302c313039393531313632373737362c355d7d7d"
)
BINARY_VC_HEX = (
    "00000030b30200300178500130016d6004480408000000000000000100000000000000"
    "0000000100000000000000000000000005"
)
VARINT_VC_HEX = "0000001500300178500130016d60047402008080808080400a"

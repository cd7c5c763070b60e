"""Gossip anti-entropy as pure functions: digest shape, push/pull
repair decisions, range serving — driven against minimal fake
server/link objects so every branch is reachable without a cluster.
(The wire-level gating and end-to-end reconvergence live in
tests/integration/test_service_recovery.py.)
"""

from repro.core.messages import UpdateMessage
from repro.service import gossip, wire
from repro.types import WriteId


class FakeLink:
    def __init__(self):
        self.acked_seq = 0
        self._queued_seqs = set()
        self.updates = []
        self.ctrl = []

    def enqueue_update(self, msg, flush=True):
        assert not flush  # a repair burst is flushed once, by its caller
        self.updates.append(msg)
        self._queued_seqs.add(msg.write_id.seq)

    def flush(self):
        pass

    def enqueue_ctrl(self, frame):
        self.ctrl.append(frame)


class FakeServer:
    def __init__(self, site=0):
        self.site = site
        self._origin_applied = {}
        self._own_log = {}
        self.links = {}

    def _link(self, dest):
        return self.links.setdefault(dest, FakeLink())


def own_write(site, seq, dests, var="x0"):
    msgs = [
        UpdateMessage(var, f"v{seq}", WriteId(site, seq), site, d, None)
        for d in dests
    ]
    return seq, msgs


class TestDigestFrame:
    def test_flat_sorted_pairs(self):
        server = FakeServer(site=2)
        server._origin_applied = {1: 7, 0: 3, 2: 9}
        frame = gossip.digest_frame(server)
        assert frame["t"] == "sys.digest"
        assert frame["src"] == 2
        assert frame["d"] == [0, 3, 1, 7, 2, 9]


class TestHandleDigest:
    def test_pushes_own_writes_above_peer_watermark(self):
        server = FakeServer(site=0)
        server._origin_applied = {0: 3}
        for seq in (1, 2, 3):
            clock, msgs = own_write(0, seq, dests=(1, 2))
            server._own_log[clock] = msgs
        # peer 1 has applied our writes through 1: only 2 and 3 re-ship,
        # and only the copies destined to peer 1
        digest = wire.make_frame("sys.digest", src=1, d=[0, 1])
        shipped = gossip.handle_digest(server, digest)
        assert shipped == 2
        assert [m.write_id.seq for m in server.links[1].updates] == [2, 3]
        assert all(m.dest == 1 for m in server.links[1].updates)

    def test_skips_writes_already_on_the_link(self):
        server = FakeServer(site=0)
        server._origin_applied = {0: 3}
        for seq in (1, 2, 3):
            clock, msgs = own_write(0, seq, dests=(1,))
            server._own_log[clock] = msgs
        link = server._link(1)
        link.acked_seq = 1        # 1 already acked on the link
        link._queued_seqs.add(2)  # 2 in flight right now
        digest = wire.make_frame("sys.digest", src=1, d=[0, 0])
        assert gossip.handle_digest(server, digest) == 1
        assert [m.write_id.seq for m in link.updates] == [3]

    def test_pulls_gap_from_the_origin_itself(self):
        server = FakeServer(site=0)
        server._origin_applied = {1: 2}
        # peer 1's digest says its own clock is at 5; we only applied 2
        digest = wire.make_frame("sys.digest", src=1, d=[1, 5])
        gossip.handle_digest(server, digest)
        (rng,) = server.links[1].ctrl
        assert rng["t"] == "sys.range"
        assert (rng["origin"], rng["rq"]) == (1, 0)
        assert (rng["lo"], rng["hi"]) == (2, 5)

    def test_no_pull_when_caught_up(self):
        server = FakeServer(site=0)
        server._origin_applied = {1: 5}
        digest = wire.make_frame("sys.digest", src=1, d=[1, 5])
        gossip.handle_digest(server, digest)
        assert server.links.get(1) is None or server.links[1].ctrl == []

    def test_third_party_gaps_are_never_forwarded(self):
        # peer 1 is behind on origin 2's writes; we may hold copies but
        # must not forward them — only origin 2's own gossip may
        server = FakeServer(site=0)
        server._origin_applied = {2: 9}
        digest = wire.make_frame("sys.digest", src=1, d=[2, 1])
        assert gossip.handle_digest(server, digest) == 0
        assert server.links == {}


class TestHandleRange:
    def test_serves_own_range_to_requester(self):
        server = FakeServer(site=3)
        for seq in (1, 2, 3, 4):
            clock, msgs = own_write(3, seq, dests=(0, 1))
            server._own_log[clock] = msgs
        frame = wire.make_frame("sys.range", origin=3, rq=1, lo=1, hi=3)
        assert gossip.handle_range(server, frame) == 2
        assert [m.write_id.seq for m in server.links[1].updates] == [2, 3]
        assert all(m.dest == 1 for m in server.links[1].updates)

    def test_mis_addressed_range_is_dropped(self):
        server = FakeServer(site=0)
        clock, msgs = own_write(0, 1, dests=(1,))
        server._own_log[clock] = msgs
        frame = wire.make_frame("sys.range", origin=2, rq=1, lo=0, hi=5)
        assert gossip.handle_range(server, frame) == 0
        assert server.links == {}

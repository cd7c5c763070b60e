"""The link handshake's catch-up as a pure step: given the receiver's
ack and applied watermark (from ``link.ok``), :meth:`PeerLink._resume`
releases the dialer's own writes the receiver holds and points the send
cursor at the ack, and :meth:`PeerLink._collect` sends what lies above
it — driven against a minimal fake owner, with no connection and no
event loop.  (End-to-end reconvergence lives in
tests/integration/test_service_recovery.py.)
"""

from repro.core.messages import UpdateMessage
from repro.service import wire
from repro.service.server import PeerLink
from repro.types import WriteId


class FakeProtocol:
    """Records the ack-driven GC calls a link makes."""

    def __init__(self):
        self.applied = []

    def note_remote_apply_log(self, site, meta):
        pass

    def note_remote_apply(self, site, clock):
        self.applied.append((site, clock))


class FakeOwner:
    """The parts of a :class:`SiteServer` a link's catch-up touches."""

    metrics = None

    def __init__(self, site=0):
        self.site = site
        self.protocol = FakeProtocol()
        self._origin_applied = {}

    def now_ms(self):
        return 0.0


def own_writes(link, seqs, var="x0"):
    site = link.owner.site
    for seq in seqs:
        link.enqueue_update(
            UpdateMessage(var, f"v{seq}", WriteId(site, seq), site, link.dest, None),
            flush=False,
        )


def queued(link):
    return [msg.write_id.seq for msg in link._own]


def handshake(link, ack):
    """What a ``link.ok`` carrying ``ack`` (and ``ap == ack``) does: a
    fresh chain on both ends, then the catch-up."""
    link._delta_out = wire.DeltaEncoder(None, link.owner.site, link.dest)
    link.peer_end = wire.DeltaDecoder(link.owner.site, link.dest)
    link._resume(ack, ack)


def send(link):
    """One flush: the ``ls`` of every repl frame it puts on the wire, as
    the receiving end restores it.  Each must be its write's clock."""
    batch, last, n_fetch = link._collect()
    link._mark_sent(last, n_fetch, "task")
    sent = []
    for frame in batch:
        ls = link.peer_end.restore(frame)["ls"]
        assert ls == wire.decode_write_id(frame["w"]).seq
        sent.append(ls)
    return sent


class TestCatchUp:
    def test_pushes_own_writes_above_the_watermark(self):
        link = PeerLink(FakeOwner(site=0), 1, "site-1")
        own_writes(link, (1, 2, 3))
        # peer 1 holds our writes through 1: the connection starts at 2
        handshake(link, 1)
        assert send(link) == [2, 3]
        assert link.backlog == 2

    def test_releases_writes_at_or_below_the_watermark(self):
        owner = FakeOwner(site=0)
        to_1, to_2 = PeerLink(owner, 1, "site-1"), PeerLink(owner, 2, "site-2")
        own_writes(to_1, (1, 2, 3, 4))
        own_writes(to_2, (3, 4))
        handshake(to_1, 3)
        # peer 1 holds 1..3: they leave its queue, peer 2's stays
        assert queued(to_1) == [4]
        assert queued(to_2) == [3, 4]
        # and the GC learns that peer 1 applied them
        assert owner.protocol.applied == [(1, 3)]

    def test_skips_writes_already_on_the_link(self):
        link = PeerLink(FakeOwner(site=0), 1, "site-1")
        own_writes(link, (1, 2))
        handshake(link, 0)
        assert send(link) == [1, 2]
        # in flight, not acked: a later flush sends only what came after
        own_writes(link, (3,))
        assert send(link) == [3]
        assert send(link) == []
        link._retire(2)
        assert queued(link) == [3]
        # a reconnect resends from the ack, not from the cursor
        handshake(link, 2)
        assert send(link) == [3]

    def test_writes_for_other_peers_are_left_alone(self):
        owner = FakeOwner(site=0)
        to_1, to_2 = PeerLink(owner, 1, "site-1"), PeerLink(owner, 2, "site-2")
        own_writes(to_2, (1, 2))
        handshake(to_1, 5)
        assert send(to_1) == []
        assert queued(to_2) == [1, 2]

    def test_third_origin_writes_are_never_forwarded(self):
        # this site applied origin 2's writes, the peer may lack them —
        # but only origin 2's own link ships them
        owner = FakeOwner(site=0)
        owner._origin_applied = {2: 9}
        link = PeerLink(owner, 1, "site-1")
        handshake(link, 0)
        assert send(link) == []

"""The link handshake's catch-up as a pure step: given the receiver's
``ow`` watermark (from ``link.ok``), :meth:`PeerLink._catch_up` re-ships
and releases the dialer's own-write log — driven against a minimal fake
owner, with no connection and no event loop.  (End-to-end reconvergence
lives in tests/integration/test_service_recovery.py.)
"""

from repro.core.messages import UpdateMessage
from repro.service.server import PeerLink, SiteServer
from repro.types import WriteId


class FakeOwner:
    """The parts of a :class:`SiteServer` a link's catch-up touches."""

    metrics = None
    _own_retired = SiteServer._own_retired

    def __init__(self, site=0):
        self.site = site
        self._origin_applied = {}
        self._own_log = {}

    def now_ms(self):
        return 0.0


def own_writes(owner, seqs, dests, var="x0"):
    for seq in seqs:
        owner._own_log[seq] = [
            UpdateMessage(var, f"v{seq}", WriteId(owner.site, seq), owner.site, d, None)
            for d in dests
        ]


def queued(link):
    return [(msg.write_id.seq, msg.dest) for _, msg in link._repl]


class TestCatchUp:
    def test_pushes_own_writes_above_the_watermark(self):
        owner = FakeOwner(site=0)
        own_writes(owner, (1, 2, 3), dests=(1, 2))
        link = PeerLink(owner, 1, "site-1")
        # peer 1 has applied our writes through 1: only 2 and 3 re-ship,
        # and only the copies destined to peer 1
        link._catch_up(1)
        assert queued(link) == [(2, 1), (3, 1)]
        assert link.backlog == 2

    def test_releases_writes_at_or_below_the_watermark(self):
        owner = FakeOwner(site=0)
        own_writes(owner, (1, 2), dests=(1,))
        own_writes(owner, (3, 4), dests=(1, 2))
        link = PeerLink(owner, 1, "site-1")
        link._catch_up(3)
        # peer 1 holds 1..3: its copies leave the log, peer 2's stay
        assert {seq: [m.dest for m in msgs] for seq, msgs in owner._own_log.items()} == {
            3: [2],
            4: [1, 2],
        }
        assert queued(link) == [(4, 1)]

    def test_skips_writes_already_on_the_link(self):
        owner = FakeOwner(site=0)
        own_writes(owner, (1, 2, 3), dests=(1,))
        link = PeerLink(owner, 1, "site-1")
        link.enqueue_update(owner._own_log[2][0], flush=False)  # in flight
        link._catch_up(0)
        # 1 and 3 re-ship behind it; 2 is not queued twice
        assert queued(link) == [(2, 1), (1, 1), (3, 1)]

    def test_writes_for_other_peers_are_left_alone(self):
        owner = FakeOwner(site=0)
        own_writes(owner, (1, 2), dests=(2,))
        link = PeerLink(owner, 1, "site-1")
        link._catch_up(5)
        assert queued(link) == []
        assert sorted(owner._own_log) == [1, 2]

    def test_third_origin_writes_are_never_forwarded(self):
        # this site applied origin 2's writes, the peer may lack them —
        # but only origin 2's own handshake re-ships them
        owner = FakeOwner(site=0)
        owner._origin_applied = {2: 9}
        link = PeerLink(owner, 1, "site-1")
        link._catch_up(0)
        assert queued(link) == []

"""Gossip anti-entropy: watermark digests and own-origin range repair.

The durability subsystem's companion (docs/durability.md has the full
walkthrough).  Each site periodically sends one peer a ``sys.digest``
frame carrying its per-origin applied watermarks — the same stable
timestamps that bound its snapshots (*Global Stabilization for Causally
Consistent Partial Replication*, Xiang & Vaidya).  The digest rides the
existing peer link as a control frame, gated on the additive ``gx``
capability bit, so a pre-durability peer never sees one.

A digest from ``src`` triggers two repairs, both **own-origin only**:

* **push** — the receiver re-ships its own writes destined to ``src``
  above ``src``'s watermark for this origin (skipping anything already
  queued or acked on the link).  Third-party copies are never forwarded:
  under partial replication each stored copy was per-destination pruned
  by the sender, so only the origin still holds a copy whose piggybacked
  metadata is sound for an arbitrary destination.
* **pull** — if ``src``'s digest shows ``src`` itself ahead of what the
  receiver has applied from it, the receiver asks for the gap with a
  ``sys.range`` control frame on its own link back to ``src``; ``src``
  answers by re-shipping its own writes destined to the requester inside
  ``(lo, hi]``.

Catch-up cost is therefore proportional to the watermark gap, not the
history: everything below the watermark is never re-sent, and a freshly
recovered site converges one digest round after each origin learns its
watermarks.  Re-shipped updates overlap normal delivery safely — the
server's origin-level duplicate guard (``seq <= _origin_applied``, or
already parked) acks and drops any copy its state already covers.

Every control frame is answered with ``sys.ctrl.ok`` only after its
repair effects are enqueued, and unacked control frames count toward the
link backlog — that is what keeps :meth:`ServiceCluster.quiesce` sound
with the gossip task running.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.service import wire

__all__ = ["digest_frame", "handle_digest", "handle_range"]


def digest_frame(server: Any) -> Dict[str, Any]:
    """This site's per-origin applied watermarks as a ``sys.digest``."""
    flat = []
    for origin in sorted(server._origin_applied):
        flat.append(int(origin))
        flat.append(int(server._origin_applied[origin]))
    return wire.make_frame("sys.digest", src=server.site, d=flat)


def _ship_own(server: Any, link: Any, clock: int, dest: int) -> int:
    """Enqueue this site's own write ``clock`` to ``dest`` if the link is
    not already carrying it; returns the number of frames enqueued.  The
    caller flushes the link once after its whole repair burst."""
    if clock <= link.acked_seq or clock in link._queued_seqs:
        return 0
    shipped = 0
    for msg in server._own_log.get(clock, ()):
        if msg.dest == dest:
            link.enqueue_update(msg, flush=False)
            shipped += 1
    return shipped


def handle_digest(server: Any, frame: Dict[str, Any]) -> int:
    """Repair against a peer's watermark digest; returns frames shipped.

    Synchronous (single-writer): every repair effect is enqueued before
    the caller acks the digest, so the link backlog accounting never has
    a window where gossip work is in flight but invisible to quiesce.
    """
    src = int(frame["src"])
    flat = frame.get("d") or ()
    theirs: Dict[int, int] = {}
    it = iter(flat)
    for origin, wm in zip(it, it):
        theirs[int(origin)] = int(wm)

    shipped = 0
    # push: our own writes destined to the peer, above its watermark
    if server._own_log:
        link = server._link(src)
        floor = theirs.get(int(server.site), 0)
        for clock in sorted(server._own_log):
            if clock > floor:
                shipped += _ship_own(server, link, clock, src)
        link.flush()

    # pull: the peer's own writes we have not applied yet — ask the
    # origin itself for the gap (third-origin gaps heal through each
    # origin's own gossip rounds, never through forwarded copies)
    their_own = theirs.get(src, 0)
    mine_of_them = int(server._origin_applied.get(src, 0))
    if their_own > mine_of_them:
        server._link(src).enqueue_ctrl(
            wire.make_frame(
                "sys.range",
                origin=src,
                rq=server.site,
                lo=mine_of_them,
                hi=their_own,
            )
        )
    return shipped


def handle_range(server: Any, frame: Dict[str, Any]) -> int:
    """Serve a peer's ``sys.range`` request from our own-write log."""
    if int(frame["origin"]) != int(server.site):
        # only the origin serves its own ranges; a mis-addressed request
        # is acked and dropped (the requester's next digest retries)
        return 0
    rq = int(frame["rq"])
    lo = int(frame["lo"])
    hi = int(frame["hi"])
    link = server._link(rq)
    shipped = 0
    for clock in sorted(server._own_log):
        if lo < clock <= hi:
            shipped += _ship_own(server, link, clock, rq)
    link.flush()
    return shipped

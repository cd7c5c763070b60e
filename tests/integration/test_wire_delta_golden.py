"""Pinned wire cost of a chained replication stream.

The counted rail for "metadata on the wire": a seeded Opt-Track run
(n = 8, q = 24, replication factor 3) driven on bare protocol instances
— no cluster, no clock, no event loop — whose every per-link update
stream is encoded twice: once as full, self-contained ``repl.t`` frames
(:meth:`BinaryCodec.pack_update`) and once the way a peer link sends it,
through :meth:`DeltaEncoder.pack_update` (chained ``repl.delta.t``
frames, lean metadata, interned variable names).  Message count, both
byte totals and the full/delta frame split are pinned as literals, in
the style of ``test_sim_goldens.py``: a change meant to be invisible on
the wire has to leave every number here alone, and a delta-encoding
regression moves ``CHAINED_BYTES`` where a timed ratio would wobble.
The same run also pins the rest of what a link carries — its acks and
its ``fetch`` / ``fetch.ok`` pairs (a fifth of ``kv-partial-meta``'s
bytes) — by count and by bytes.

Re-pinned once, at WIRE_VERSION 5 (varint int vectors, chained ``ls`` /
``it`` / ack, link-implied ``src`` / ``dst`` / ``rq`` / ``sv``, interned
fetch variables, delta-or-full priced by what each packs), old -> new
over the identical message stream:

    FULL_BYTES       297 635 -> 236 866   (self-contained: varints only)
    CHAINED_BYTES    181 494 -> 137 448   (0.757x)
    full / delta     597 / 2 522 -> 843 / 2 276 frames
    ACK_BYTES         26 694 ->  26 694   (sequences here stay under 128,
                                           where an absolute ack already
                                           took one byte)
    FETCH_BYTES        7 302 ->   4 690   (0.642x)
    FETCH_OK_BYTES    45 002 ->  32 877   (0.731x)

Re-pinned once more, at WIRE_VERSION 6 (the lean envelope: a frame is
priced as a handshaken connection carries it — its LEB128 delimiter,
one byte under 128, instead of the 4-byte length prefix, and a body
that opens with its tag, without the magic and schema-version bytes),
old -> new over the identical message stream; every frame here is under
128 bytes, so each is exactly 5 bytes shorter:

    FULL_BYTES       236 866 -> 221 271
    CHAINED_BYTES    137 448 -> 121 853   (0.887x)
    full / delta     843 / 2 276 frames, unchanged
    ACK_BYTES         26 694 ->  11 864   (0.444x)
    FETCH_BYTES        4 690 ->   2 345   (0.500x)
    FETCH_OK_BYTES    32 877 ->  30 532   (0.929x)

Re-pinned once more when the paper-literal read left the library: every
``fetch`` now carries the requester's dependency summary (DESIGN.md
§2a), on the service's links as here; the update, ack and reply streams
are identical:

    FETCH_BYTES        2 345 ->   5 278   (2.25x; 5.0 -> 11.3 B a fetch)
"""

from collections import deque

import numpy as np

from repro.service import wire
from repro.store.placement import default_variables, make_placement
from tests.conftest import make_sites

N, Q, RF, OPS, SEED = 8, 24, 3, 1600, 20
WRITE_FRAC, DELIVER_FRAC, FETCH_FRAC = 0.75, 0.4, 0.3

#: 56 links; chained / full = 0.551
MESSAGES = 3119
FULL_BYTES = 221_271
CHAINED_BYTES = 121_853
FULL_FRAMES = 843
DELTA_FRAMES = 2276
#: one cumulative ack per delivery batch and sender
ACKS = 2966
ACK_BYTES = 11_864
#: remote reads: the request, and the reply with its log and snapshot
FETCHES = 469
FETCH_BYTES = 5_278
FETCH_OK_BYTES = 30_532


def on_wire(encoded):
    """What a handshaken connection carries of one encoded frame: its
    body behind the LEB128 delimiter, not the codec's 4-byte prefix."""
    body = len(encoded) - 4
    return len(wire.delimiter(body)) + body


def _drain(sites, inbox, dest, applied, acks):
    """Apply everything deliverable at ``dest``: per-sender FIFO, to a
    fixpoint (an apply can unblock another sender's head); then one
    cumulative ack per sender that made progress, as a batch earns."""
    before = list(applied[dest])
    progressed = True
    while progressed:
        progressed = False
        for src, queue in enumerate(inbox[dest]):
            while queue and sites[dest].can_apply(queue[0]):
                sites[dest].apply_update(queue.popleft())
                applied[dest][src] += 1
                progressed = True
    for src, (was, now) in enumerate(zip(before, applied[dest])):
        if now > was:
            acks.setdefault((src, dest), []).append(now)


def link_streams(traffic=None):
    """``{(src, dst): [(msg, issued_ms), ...]}`` in send order.  With a
    ``traffic`` dict, the other half of a link's bytes is recorded into
    it without disturbing the run: ``acks[(src, dst)]`` — the cumulative
    ack after every delivery batch — and ``fetches[(rq, sv)]`` — a
    request/reply pair per remote read, drawn from a generator of its
    own and never merged into the reader."""
    rng = np.random.default_rng(SEED)
    fetch_rng = np.random.default_rng(SEED + 1)
    acks, fetches = {}, {}
    applied = [[0] * N for _ in range(N)]  # [dst][src]
    variables = default_variables(Q)
    placement = make_placement("round-robin", N, Q, RF, seed=SEED)
    sites = make_sites("opt-track", N, placement)
    inbox = [[deque() for _ in range(N)] for _ in range(N)]  # [dst][src]
    streams = {}
    for step in range(OPS):
        site = int(rng.integers(N))
        if rng.random() < WRITE_FRAC:
            var = variables[int(rng.integers(Q))]
            for msg in sites[site].write(var, f"v{step}").messages:
                inbox[msg.dest][site].append(msg)
                streams.setdefault((site, msg.dest), []).append((msg, float(step)))
        else:
            mine = [v for v in variables if site in placement[v]]
            sites[site].read_local(mine[int(rng.integers(len(mine)))])
        if fetch_rng.random() < FETCH_FRAC:
            reader = int(fetch_rng.integers(N))
            others = [v for v in variables if reader not in placement[v]]
            var = others[int(fetch_rng.integers(len(others)))]
            server = sites[reader].fetch_target(var)
            req = sites[reader].make_fetch_request(var, server)
            fetches.setdefault((reader, server), []).append(
                (req, sites[server].serve_fetch(req))
            )
        # deliveries lag the writes, so dependency logs are not trivial
        for dest in range(N):
            if rng.random() < DELIVER_FRAC:
                _drain(sites, inbox, dest, applied, acks)
    for _ in range(N):
        for dest in range(N):
            _drain(sites, inbox, dest, applied, acks)
    assert not any(q for row in inbox for q in row), "undeliverable update"
    if traffic is not None:
        traffic.update(acks=acks, fetches=fetches)
    return streams, wire.InternTable(wire.intern_table_names(placement))


def test_chained_stream_bytes_are_pinned():
    streams, itab = link_streams()
    codec = wire.BINARY_CODEC_V4
    messages = full_bytes = chained_bytes = full_frames = delta_frames = 0
    for link in sorted(streams):
        enc = wire.DeltaEncoder(itab, *link)
        for ls, (msg, issued) in enumerate(streams[link], start=1):
            full = codec.pack_update(msg, ls, issued)
            chained = enc.pack_update(msg, ls, issued, codec)
            assert wire.encoded_kind(full) == "repl.t"
            messages += 1
            full_bytes += on_wire(full)
            chained_bytes += on_wire(chained)
            if wire.encoded_kind(chained) == "repl.delta.t":
                delta_frames += 1
            else:
                full_frames += 1
    assert (messages, full_bytes, chained_bytes, full_frames, delta_frames) == (
        MESSAGES, FULL_BYTES, CHAINED_BYTES, FULL_FRAMES, DELTA_FRAMES
    )
    # the first frame of every link is full; the rest mostly chain
    assert full_frames >= len(streams) and delta_frames > full_frames


def test_ack_and_fetch_stream_bytes_are_pinned():
    """The other half of a link's bytes, from the same run: every
    cumulative ack through the accepting end's chain, every remote read
    as the ``fetch`` / ``fetch.ok`` pair a link carries (interned name,
    lean metadata, no requester / server fields)."""
    traffic = {}
    _, itab = link_streams(traffic)
    codec = wire.BINARY_CODEC_V4
    acks = ack_bytes = 0
    for link in sorted(traffic["acks"]):
        dec = wire.DeltaDecoder(*link)
        for ack in traffic["acks"][link]:
            acks += 1
            ack_bytes += on_wire(dec.pack_ack(ack, 0, codec))
    fetches = fetch_bytes = reply_bytes = 0
    for link in sorted(traffic["fetches"]):
        for req, reply in traffic["fetches"][link]:
            assert (req.requester, req.server) == link
            fetches += 1
            fetch_bytes += on_wire(codec.pack_fetch(req, itab))
            reply_bytes += on_wire(codec.pack_fetch_ok(reply, True, itab))
    assert (acks, ack_bytes) == (ACKS, ACK_BYTES)
    assert (fetches, fetch_bytes, reply_bytes) == (
        FETCHES, FETCH_BYTES, FETCH_OK_BYTES
    )

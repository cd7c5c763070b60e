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
"""

from collections import deque

import numpy as np

from repro.service import wire
from repro.store.placement import default_variables, make_placement
from tests.conftest import make_sites

N, Q, RF, OPS, SEED = 8, 24, 3, 1600, 20
WRITE_FRAC, DELIVER_FRAC = 0.75, 0.4

#: 56 links; chained / full = 0.610
MESSAGES = 3119
FULL_BYTES = 297_635
CHAINED_BYTES = 181_494
FULL_FRAMES = 597
DELTA_FRAMES = 2522


def _drain(sites, inbox, dest):
    """Apply everything deliverable at ``dest``: per-sender FIFO, to a
    fixpoint (an apply can unblock another sender's head)."""
    progressed = True
    while progressed:
        progressed = False
        for queue in inbox[dest]:
            while queue and sites[dest].can_apply(queue[0]):
                sites[dest].apply_update(queue.popleft())
                progressed = True


def link_streams():
    """``{(src, dst): [(msg, issued_ms), ...]}`` in send order."""
    rng = np.random.default_rng(SEED)
    variables = default_variables(Q)
    placement = make_placement("round-robin", N, Q, RF, seed=SEED)
    sites = make_sites("opt-track", N, placement, strict_remote_reads=False)
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
        # deliveries lag the writes, so dependency logs are not trivial
        for dest in range(N):
            if rng.random() < DELIVER_FRAC:
                _drain(sites, inbox, dest)
    for _ in range(N):
        for dest in range(N):
            _drain(sites, inbox, dest)
    assert not any(q for row in inbox for q in row), "undeliverable update"
    return streams, wire.InternTable(wire.intern_table_names(placement))


def test_chained_stream_bytes_are_pinned():
    streams, itab = link_streams()
    codec = wire.BINARY_CODEC_V4
    messages = full_bytes = chained_bytes = full_frames = delta_frames = 0
    for link in sorted(streams):
        enc = wire.DeltaEncoder(itab)
        for ls, (msg, issued) in enumerate(streams[link], start=1):
            full = codec.pack_update(msg, ls, issued)
            chained = enc.pack_update(msg, ls, issued, codec)
            assert wire.encoded_kind(full) == "repl.t"
            messages += 1
            full_bytes += len(full)
            chained_bytes += len(chained)
            if wire.encoded_kind(chained) == "repl.delta.t":
                delta_frames += 1
            else:
                full_frames += 1
    assert (messages, full_bytes, chained_bytes, full_frames, delta_frames) == (
        MESSAGES, FULL_BYTES, CHAINED_BYTES, FULL_FRAMES, DELTA_FRAMES
    )
    # the first frame of every link is full; the rest mostly chain
    assert full_frames >= len(streams) and delta_frames > full_frames

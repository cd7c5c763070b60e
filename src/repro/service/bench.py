"""Service throughput bench: the ``BENCH_service.json`` ledger.

Measures the networked KV service end to end under the three wire
profiles — the v2 baseline (JSON codec, per-frame flush, one ack per
apply), the WIRE_VERSION 3 profile (binary codec, coalesced batches,
cumulative acks), and the WIRE_VERSION 4 metadata-lean profile (chained
``repl.delta`` frames, negotiated id interning, ack-driven GC) — over
both transports:

* **loopback** — deterministic in-process transport; every frame still
  round-trips the active codec, so this isolates encode/decode plus the
  per-frame vs batched server machinery with zero kernel noise;
* **tcp** — real sockets on 127.0.0.1, adding syscall/flush behaviour —
  the coalesced single-``drain`` write path only exists here.

Each cell drives the closed-loop YCSB generator (several sessions per
site, so servers see overlapping requests — what gives batching
something to coalesce) and reports ops/s plus p50/p99 service latency
from the shared :class:`~repro.obs.registry.MetricsRegistry` histogram
pipeline.  Cells run ``repeats`` times and keep the best run, the usual
noise floor for throughput benches.

Every cell additionally reports **bytes per operation** from the
transport-level ``wire_bytes_sent_total`` counters, and a dedicated
**metadata-bound cell** (:data:`METADATA_BOUND`: tiny values, eight
sites, sparse placement, a long YCSB-A run — the regime where causal
metadata, not payload, dominates the wire) isolates what the v4
profile is for.

The **guardrails**: on the reference loopback run the binary profile
must beat the JSON profile by at least :data:`SPEEDUP_FLOOR` in ops/s,
and on the metadata-bound cell the delta profile must spend at most
:data:`BYTES_RATIO_CEILING` of the binary profile's bytes per op.
:func:`write_report` (and so ``make service-bench`` / CI) raises when
either fails — a codec, batching, or delta regression fails the build
rather than silently eroding the win the ledger documents.

A codec microbench (encoded frame sizes and per-frame encode/decode
times for a representative ``repl`` frame and ack, plus the chained
delta encoding of a representative consecutive-frame pair) rides
along, tying the end-to-end numbers back to the paper's
message-overhead argument.  Its ``one_pass`` block times the two
heaviest hot frames — a v4 repl chain and a fetch reply — through both
wire paths (frame dicts walked by the generic codec vs the one-pass
encoders and decoders of :mod:`repro.service.wire`);
:func:`write_report` raises when a one-pass row is slower than its
dict-path row or the two paths' bytes differ, in fast mode too.

The **durability cell** prices the write-ahead log (docs/durability.md):
the reference loopback/binary config run WAL-off and WAL-on in paired
back-to-back attempts (same seed; pairing cancels machine drift that
two independently-best cells would sample separately), judged on the
best paired ratio by :data:`DURABILITY_FLOOR` — logging every
transition may cost at most a quarter of the throughput.  The receive
path logs raw wire bytes (:meth:`SiteWal.append_raw`), which is what
keeps the ratio comfortably above the floor.  A recovery microbench
rides along: kill a
site, let it fall ``gap`` writes behind, and time the restart
(constructor-time WAL replay) and reconvergence separately, so the
ledger documents that catch-up cost scales with the gap, not the
history.
"""

from __future__ import annotations

import asyncio
import gc
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.core.log import DepLog
from repro.core.messages import FetchReply, OptTrackMeta, UpdateMessage
from repro.obs.export import parse_metric_key
from repro.obs.registry import MetricsRegistry
from repro.service import wire
from repro.service.harness import ServiceCluster
from repro.service.loadgen import LoadGenerator
from repro.service.transport import LoopbackTransport, TcpTransport
from repro.types import WriteId

#: the CI guardrail: binary ops/s must be at least this multiple of
#: JSON ops/s on the reference loopback cell
SPEEDUP_FLOOR = 1.25

#: the CI guardrail for the v4 profile: on the metadata-bound loopback
#: cell the delta profile's bytes/op must be at most this fraction of
#: the binary (v3) profile's
BYTES_RATIO_CEILING = 0.60

#: the CI guardrail for the durability subsystem: WAL-on ops/s must be
#: at least this fraction of the WAL-off reference loopback cell —
#: appends are write+flush on the hot path (fsync is batched off-loop),
#: so logging every transition may cost at most a quarter of the
#: throughput
DURABILITY_FLOOR = 0.75

#: revived-site gaps (writes issued while the site was dead) the
#: recovery microbench times; fast mode uses the first two
RECOVERY_GAPS = (0, 50, 200)

#: the reference run every ledger row shares: full replication over four
#: sites (each write fans out to three peer links — the wire path is a
#: large share of the work), YCSB-A at twelve closed-loop sessions per
#: site (overlap makes batches), 4 KB values (YCSB-scale records; tiny
#: test values understate every codec's share of an op)
REFERENCE: Dict[str, Any] = {
    "protocol": "opt-track",
    "sites": 4,
    "variables": 12,
    "replication_factor": 4,
    "workload": "a",
    "ops_per_site": 250,
    "sessions": 12,
    "value_size": 4096,
    "seed": 7,
}

#: the metadata-bound cell: tiny values over a wide, sparsely
#: replicated cluster, run long — under sparse placement the v3
#: dependency logs grow with run length (piggybacked knowledge starves)
#: while the v4 ack-driven GC holds them to the in-flight window, and
#: the read half of YCSB-A ships a stored log in every fetch reply.
#: Metadata, not payload, is then what the wire carries, which is the
#: regime the v4 profile is for.  Loopback only: the cell measures
#: bytes on the wire, which transports agree on exactly.
METADATA_BOUND: Dict[str, Any] = {
    "protocol": "opt-track",
    "sites": 8,
    "variables": 24,
    "replication_factor": 3,
    "workload": "a",
    "ops_per_site": 900,
    "sessions": 8,
    "value_size": 0,
    "seed": 11,
}

#: cell repeats (best-of); the fast path used by tests runs once
REPEATS = 3

_CODECS = ("json", "binary", "delta")


async def _free_tcp_addresses(n: int) -> Dict[int, str]:
    """Reserve ``n`` distinct 127.0.0.1 ports via ephemeral listeners.

    Uses ``asyncio.start_server`` (never the ``socket`` module — the
    service layer is lint-banned from blocking I/O imports); the tiny
    close-then-rebind race is acceptable for a bench harness.
    """
    servers = []
    addresses: Dict[int, str] = {}
    try:
        for site in range(n):
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            servers.append(server)
            port = server.sockets[0].getsockname()[1]
            addresses[site] = f"127.0.0.1:{port}"
    finally:
        for server in servers:
            server.close()
            await server.wait_closed()
    return addresses


async def bench_cell(
    transport: str,
    codec: str,
    config: Optional[Dict[str, Any]] = None,
    repeats: int = REPEATS,
) -> Dict[str, Any]:
    """One matrix cell: best-of-``repeats`` load runs, as a JSON row."""
    cfg = dict(REFERENCE)
    cfg.update(config or {})
    best: Optional[Dict[str, Any]] = None
    for attempt in range(max(1, repeats)):
        metrics = MetricsRegistry()
        kwargs: Dict[str, Any] = {}
        state_dir: Optional[tempfile.TemporaryDirectory] = None
        if cfg.get("durable"):
            # the WAL-on variant: a throwaway data dir per attempt, the
            # default group-fsync policy, no snapshot/gossip tasks — the
            # cell prices the append path alone
            state_dir = tempfile.TemporaryDirectory(prefix="repro-bench-wal-")
            kwargs["data_dir"] = state_dir.name
            kwargs["fsync"] = cfg.get("fsync", "group")
        if transport == "tcp":
            kwargs["transport"] = TcpTransport(metrics=metrics)
            kwargs["addresses"] = await _free_tcp_addresses(cfg["sites"])
        elif transport == "loopback":
            if cfg.get("link_delay"):
                # the WAN-latency knob: a delayed loopback grows the
                # unacked window, and with it the dependency logs —
                # the metadata-bound cell runs here
                kwargs["transport"] = LoopbackTransport(
                    metrics=metrics, delay=cfg["link_delay"]
                )
        else:
            raise ValueError(f"unknown bench transport {transport!r}")
        async with ServiceCluster(
            cfg["sites"],
            cfg["variables"],
            cfg["protocol"],
            replication_factor=cfg["replication_factor"],
            metrics=metrics,
            seed=cfg["seed"] + attempt,
            codec=codec,
            **kwargs,
        ) as cluster:
            gen = LoadGenerator(
                cluster,
                workload=cfg["workload"],
                ops_per_site=cfg["ops_per_site"],
                sessions=cfg["sessions"],
                value_size=cfg["value_size"],
                seed=cfg["seed"] + attempt,
                metrics=metrics,
            )
            # a GC pause landing inside one cell skews the ratio; collect
            # up front and keep the collector out of the measured window
            gc.collect()
            gc.disable()
            try:
                report = await gen.run()
            finally:
                gc.enable()
            await cluster.quiesce()
        if state_dir is not None:
            state_dir.cleanup()
        row = report.as_dict()
        row["transport"] = transport
        row["codec"] = codec
        if cfg.get("durable"):
            row["wal"] = "on"
        # transport-level byte totals over the whole run including the
        # quiesce tail, so replication traffic is fully accounted
        counters = metrics.snapshot()["counters"]
        sent = sum(
            v for k, v in counters.items()
            if k.startswith("wire_bytes_sent_total")
        )
        row["wire_bytes_sent"] = sent
        row["wire_bytes_per_op"] = sent / row["ops"] if row["ops"] else 0.0
        # sent bytes attributed per frame kind (sender-side split of the
        # same traffic) — what lets the v4 metadata-lean ledger show the
        # savings land on repl frames, not acks or fetches
        by_kind: Dict[str, int] = {}
        for key, value in counters.items():
            if key.startswith("wire_frame_bytes_total"):
                name, labels = parse_metric_key(key)
                kind = labels.get("kind", "?")
                by_kind[kind] = by_kind.get(kind, 0) + value
        row["bytes_by_kind"] = dict(sorted(by_kind.items()))
        if report.errors:
            raise RuntimeError(
                f"bench cell {transport}/{codec} surfaced {report.errors} "
                "request errors; the ledger only records clean runs"
            )
        if best is None or row["ops_per_s"] > best["ops_per_s"]:
            best = row
    assert best is not None
    return best


def _reference_repl_messages() -> List[UpdateMessage]:
    """Two consecutive updates from one sender for the codec microbench:
    Opt-Track metadata whose dependency logs overlap heavily — the shape
    a peer link actually carries, and what the delta chain exploits."""
    return [
        UpdateMessage(
            var="x7",
            value="value-7",
            write_id=WriteId(1, 41),
            sender=1,
            dest=2,
            meta=OptTrackMeta(
                clock=41,
                replicas_mask=0b110,
                log=DepLog({(0, 17): 6, (1, 40): 5, (2, 9): 3}),
            ),
        ),
        UpdateMessage(
            var="x7",
            value="value-8",
            write_id=WriteId(1, 42),
            sender=1,
            dest=2,
            meta=OptTrackMeta(
                clock=42,
                replicas_mask=0b110,
                log=DepLog({(0, 17): 6, (1, 41): 5, (2, 9): 3}),
            ),
        ),
    ]


def _reference_repl_frame() -> Dict[str, Any]:
    return wire.encode_update(_reference_repl_messages()[0], 41)


def bench_codecs(iterations: int = 20000) -> Dict[str, Any]:
    """Per-frame encode/decode timings and sizes for both codecs, plus
    the chained ``repl.delta`` size for the consecutive-frame pair."""
    frames = {
        "repl": _reference_repl_frame(),
        "repl.ack": wire.make_frame("repl.ack", a=41),
    }
    out: Dict[str, Any] = {"iterations": iterations}
    for name, frame in frames.items():
        row: Dict[str, Any] = {}
        for codec_name in ("json", "binary"):
            codec = wire.CODECS[codec_name]
            encoded = codec.encode(frame)
            body = encoded[4:]
            assert wire.decode_body(body) == frame
            t0 = time.perf_counter()
            for _ in range(iterations):
                codec.encode(frame)
            t1 = time.perf_counter()
            for _ in range(iterations):
                wire.decode_body(body)
            t2 = time.perf_counter()
            row[codec_name] = {
                "body_bytes": len(body),
                "encode_us": (t1 - t0) / iterations * 1e6,
                "decode_us": (t2 - t1) / iterations * 1e6,
            }
        row["size_ratio"] = row["json"]["body_bytes"] / row["binary"]["body_bytes"]
        out[name] = row
    # the v4 chain on the same pair: second frame as repl.delta with an
    # interned var id, against the second frame encoded full
    first, second = _reference_repl_messages()
    itab = wire.InternTable(["x7"])
    enc = wire.DeltaEncoder(itab)
    enc.encode_update(first, 41)
    delta_frame = enc.encode_update(second, 42)
    full_bytes = len(wire.BINARY_CODEC.encode(wire.encode_update(second, 42))) - 4
    delta_bytes = len(wire.BINARY_CODEC.encode(delta_frame)) - 4
    out["repl.delta"] = {
        "frame_type": delta_frame["t"],
        "full_body_bytes": full_bytes,
        "delta_body_bytes": delta_bytes,
        "size_ratio": full_bytes / delta_bytes if delta_bytes else 0.0,
    }
    out["one_pass"] = bench_one_pass(iterations)
    return out


def _reference_repl_chain(frames: int = 12) -> List[UpdateMessage]:
    """A longer stream from one sender for the one-pass rows: the
    dependency log evolves a record or two per write (profitable
    ``repl.delta`` frames) and turns over wholesale every fifth write
    (the fall-back-to-full frame), like a live link's."""
    entries = {(0, 17): 6, (2, 9): 3, (3, 30): 0, (4, 12): 5, (5, 8): 0}
    msgs = []
    for step in range(frames):
        clock = 41 + step
        entries = dict(entries)
        if step % 5 == 4:
            entries = {(s, clock - 3 - s): s % 4 for s in range(6) if s != 1}
        else:
            entries.pop(min(entries), None)
            entries[(step % 6, clock - 1)] = (step * 5) % 8
        entries[(1, clock)] = 0b101
        msgs.append(
            UpdateMessage(
                var=f"x{step % 3}",
                value=f"value-{step}",
                write_id=WriteId(1, clock),
                sender=1,
                dest=2,
                meta=OptTrackMeta(
                    clock=clock, replicas_mask=0b110, log=DepLog(entries)
                ),
            )
        )
    return msgs


def _best_us(fn: Any, per_call: int, iterations: int) -> float:
    """Microseconds per item of ``fn`` (which processes ``per_call``
    items): the fastest of five timed batches, so one scheduler hiccup
    cannot fail the one-pass rail."""
    rounds = max(1, iterations // per_call)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(rounds):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / (rounds * per_call) * 1e6


def bench_one_pass(iterations: int = 20000) -> Dict[str, Any]:
    """The repl chain and the fetch reply through both wire paths on a
    v4 connection: per-frame encode and decode times, and whether the
    two paths produced the same bytes (they must)."""
    codec = wire.BINARY_CODEC_V4
    itab = wire.InternTable(["x0", "x1", "x2"])
    chain = _reference_repl_chain()
    issued = 1234.5

    def encode_dict() -> List[bytes]:
        enc = wire.DeltaEncoder(itab)
        return [
            codec.encode(wire.stamp_issue(enc.encode_update(m, ls), issued))
            for ls, m in enumerate(chain, 1)
        ]

    def encode_one_pass() -> List[bytes]:
        enc = wire.DeltaEncoder(itab)
        return [
            enc.pack_update(m, ls, issued, codec) for ls, m in enumerate(chain, 1)
        ]

    bodies = [frame[4:] for frame in encode_dict()]

    def decode_dict() -> None:
        dec = wire.DeltaDecoder()
        for body in bodies:
            frame = wire.decode_body(body)
            wire.strip_issue(frame)
            dec.decode_update(frame, itab)

    def decode_one_pass() -> None:
        dec = wire.DeltaDecoder()
        for body in bodies:
            dec.unpack_update(wire.decode_message(body, itab))

    reply = FetchReply(
        var="x1",
        value="value-7",
        write_id=WriteId(1, 41),
        server=2,
        requester=1,
        fetch_id=7,
        meta=chain[3].meta.log,
        applied=(44, 41, 9, 30, 12, 8),
    )
    reply_dict = codec.encode(wire.encode_fetch_reply(reply, compact=True, itab=itab))
    reply_body = reply_dict[4:]
    out: Dict[str, Any] = {
        "repl.chain": {
            "frames": len(chain),
            "kinds": [wire.encoded_kind(f) for f in encode_one_pass()],
            "bytes_equal": encode_dict() == encode_one_pass(),
            "dict": {
                "encode_us": _best_us(encode_dict, len(chain), iterations),
                "decode_us": _best_us(decode_dict, len(chain), iterations),
            },
            "one_pass": {
                "encode_us": _best_us(encode_one_pass, len(chain), iterations),
                "decode_us": _best_us(decode_one_pass, len(chain), iterations),
            },
        },
        "fetch.ok": {
            "bytes_equal": reply_dict == codec.pack_fetch_ok(reply, True, itab),
            "dict": {
                "encode_us": _best_us(
                    lambda: codec.encode(
                        wire.encode_fetch_reply(reply, compact=True, itab=itab)
                    ),
                    1, iterations,
                ),
                "decode_us": _best_us(
                    lambda: wire.decode_fetch_reply(
                        wire.decode_body(reply_body), itab
                    ),
                    1, iterations,
                ),
            },
            "one_pass": {
                "encode_us": _best_us(
                    lambda: codec.pack_fetch_ok(reply, True, itab), 1, iterations
                ),
                "decode_us": _best_us(
                    lambda: wire.decode_message(reply_body, itab), 1, iterations
                ),
            },
        },
    }
    problems = []
    for name, row in out.items():
        if not row["bytes_equal"]:
            problems.append(f"{name}: one-pass bytes differ from the dict path's")
        for side in ("encode_us", "decode_us"):
            if row["one_pass"][side] > row["dict"][side]:
                problems.append(
                    f"{name}: one-pass {side} {row['one_pass'][side]:.2f} is "
                    f"slower than the dict path's {row['dict'][side]:.2f}"
                )
    out["problems"] = problems
    return out


async def bench_recovery(
    gaps=RECOVERY_GAPS, preload: int = 40
) -> List[Dict[str, Any]]:
    """Time kill → restart → reconverge against the revived site's gap.

    One durable 3-site loopback cluster per gap: ``preload`` writes land
    everywhere, the victim is killed, ``gap`` more writes are issued
    while it is dead, and the restart is timed in two parts — the
    synchronous constructor recovery (snapshot + WAL-suffix replay,
    covering the preload) and the reconvergence tail (link redelivery +
    gossip closing the gap).  All writes go to one site-0/victim shared
    variable from one site-0 session, so convergence is exactly "the
    victim's site-0 watermark reaches preload + gap".
    """
    rows: List[Dict[str, Any]] = []
    loop = asyncio.get_running_loop()
    for gap in gaps:
        with tempfile.TemporaryDirectory(prefix="repro-bench-rec-") as root:
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2, seed=23,
                codec="binary", data_dir=root, gossip_interval=0.05,
            ) as cluster:
                victim = cluster.n - 1
                var = next(
                    v for v in cluster.variables
                    if 0 in cluster.placement[v]
                    and victim in cluster.placement[v]
                )
                client = cluster.client(0)
                for i in range(preload):
                    await client.put(var, f"pre-{i}")
                await cluster.quiesce()
                cluster.kill_site(victim)
                for i in range(gap):
                    await client.put(var, f"gap-{i}")
                await client.close()
                await cluster.quiesce()
                t0 = loop.time()
                revived = await cluster.restart_site(victim)
                t_restarted = loop.time()
                target = preload + gap
                deadline = t_restarted + 30.0
                while (
                    revived._origin_applied.get(0, 0) < target
                    and loop.time() < deadline
                ):
                    await asyncio.sleep(0.002)
                t_converged = loop.time()
                converged = revived._origin_applied.get(0, 0) >= target
                await cluster.quiesce(timeout=10.0)
            if not converged:
                raise RuntimeError(
                    f"recovery bench: revived site never converged at "
                    f"gap={gap} (watermark "
                    f"{revived._origin_applied.get(0, 0)}/{target})"
                )
            rows.append(
                {
                    "gap": gap,
                    "preload": preload,
                    "replayed_records": revived.wal_replayed,
                    "restart_ms": (t_restarted - t0) * 1e3,
                    "converge_ms": (t_converged - t_restarted) * 1e3,
                }
            )
    return rows


async def _run_matrix(
    fast: bool, config: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    cfg = dict(REFERENCE)
    if fast:
        cfg.update(ops_per_site=40, sessions=3)
    cfg.update(config or {})
    repeats = 1 if fast else REPEATS
    cells: Dict[str, Dict[str, Any]] = {}
    for transport in ("loopback", "tcp"):
        per_codec: Dict[str, Any] = {}
        for codec in _CODECS:
            per_codec[codec] = await bench_cell(
                transport, codec, config=cfg, repeats=repeats
            )
        per_codec["speedup"] = (
            per_codec["binary"]["ops_per_s"] / per_codec["json"]["ops_per_s"]
        )
        per_codec["delta_vs_binary"] = (
            per_codec["delta"]["ops_per_s"] / per_codec["binary"]["ops_per_s"]
        )
        cells[transport] = per_codec
    # the metadata-bound cell: loopback only, all three profiles, judged
    # on bytes/op (the v4 guardrail) rather than throughput
    meta_cfg = dict(METADATA_BOUND)
    if fast:
        meta_cfg.update(ops_per_site=30, sessions=3)
    metadata: Dict[str, Any] = {"config": meta_cfg}
    for codec in _CODECS:
        metadata[codec] = await bench_cell(
            "loopback", codec, config=meta_cfg, repeats=repeats
        )
    bytes_ratio = (
        metadata["delta"]["wire_bytes_per_op"]
        / metadata["binary"]["wire_bytes_per_op"]
    )
    metadata["bytes_ratio"] = bytes_ratio
    speedup = cells["loopback"]["speedup"]
    # the durability cell: the loopback/binary reference config re-run
    # WAL-off and WAL-on in *paired* attempts — off then on back to
    # back, same seed — judged on the best paired ratio.  Pairing is
    # the variance control: throughput on a shared machine drifts more
    # than the WAL costs, and two independently-best cells sample
    # different moments; adjacent runs sample the same one, so their
    # ratio isolates the WAL's own cost.
    pairs: List[Dict[str, Any]] = []
    best_pair = None
    for attempt in range(repeats):
        pair_cfg = dict(cfg)
        pair_cfg["seed"] = cfg["seed"] + 101 * attempt
        off = await bench_cell("loopback", "binary", config=pair_cfg, repeats=1)
        on = await bench_cell(
            "loopback", "binary",
            config={**pair_cfg, "durable": True}, repeats=1,
        )
        ratio = on["ops_per_s"] / off["ops_per_s"]
        pairs.append(
            {
                "off_ops_per_s": off["ops_per_s"],
                "on_ops_per_s": on["ops_per_s"],
                "wal_ratio": ratio,
            }
        )
        if best_pair is None or ratio > best_pair[0]:
            best_pair = (ratio, off, on)
    wal_ratio = best_pair[0]
    durability: Dict[str, Any] = {
        "off": best_pair[1],
        "on": best_pair[2],
        "pairs": pairs,
        "wal_ratio": wal_ratio,
        "recovery": await bench_recovery(
            gaps=RECOVERY_GAPS[:2] if fast else RECOVERY_GAPS,
            preload=10 if fast else 40,
        ),
    }
    return {
        "config": cfg,
        "repeats": repeats,
        "wire_versions": {
            "json": wire.JSON_WIRE_VERSION,
            "binary": wire.BATCH_WIRE_VERSION,
            "delta": wire.DELTA_WIRE_VERSION,
        },
        "cells": cells,
        "metadata_cell": metadata,
        "durability_cell": durability,
        "codec_micro": bench_codecs(iterations=2000 if fast else 20000),
        "guardrail": {
            "transport": "loopback",
            "speedup_floor": SPEEDUP_FLOOR,
            "speedup": speedup,
            "bytes_ratio_ceiling": BYTES_RATIO_CEILING,
            "bytes_ratio": bytes_ratio,
            "durability_floor": DURABILITY_FLOOR,
            "wal_ratio": wal_ratio,
            # fast mode shrinks the run below the point where batches
            # form, so it exercises the machinery without judging the
            # throughput rail; the bytes rail is deterministic enough
            # to hold in fast mode too, but is judged only on full runs
            "enforced": not fast,
            "ok": fast
            or (
                speedup >= SPEEDUP_FLOOR
                and bytes_ratio <= BYTES_RATIO_CEILING
                and wal_ratio >= DURABILITY_FLOOR
            ),
        },
    }


def bench_service(
    fast: bool = False, config: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Run the full transport × codec matrix; returns the ledger dict."""
    return asyncio.run(_run_matrix(fast, config))


def write_report(
    path: str, fast: bool = False, config: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Write ``BENCH_service.json``.  Raises ``RuntimeError`` when the
    binary profile fails the :data:`SPEEDUP_FLOOR` guardrail or the
    delta profile fails the :data:`BYTES_RATIO_CEILING` guardrail — the
    ``make service-bench`` / CI gate."""
    import json

    report = bench_service(fast=fast, config=config)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    one_pass = report["codec_micro"]["one_pass"]["problems"]
    if one_pass:
        # enforced in fast mode too: byte identity is exact, and the
        # timings are best-of-five of a 1.5x gap
        raise RuntimeError(
            "service bench guardrail failed: " + "; ".join(one_pass)
        )
    rail = report["guardrail"]
    if not rail["ok"]:
        problems = []
        if rail["speedup"] < rail["speedup_floor"]:
            problems.append(
                f"binary is only {rail['speedup']:.2f}x the JSON baseline "
                f"on the reference loopback bench (floor "
                f"{rail['speedup_floor']:.2f}x)"
            )
        if rail["bytes_ratio"] > rail["bytes_ratio_ceiling"]:
            problems.append(
                f"delta spends {rail['bytes_ratio']:.2f}x the binary "
                f"profile's bytes/op on the metadata-bound cell (ceiling "
                f"{rail['bytes_ratio_ceiling']:.2f}x)"
            )
        if rail["wal_ratio"] < rail["durability_floor"]:
            problems.append(
                f"the WAL costs too much: durable ops/s is only "
                f"{rail['wal_ratio']:.2f}x the memory-only cell (floor "
                f"{rail['durability_floor']:.2f}x)"
            )
        raise RuntimeError(
            "service bench guardrail failed: " + "; ".join(problems)
        )
    return report


__all__ = [
    "SPEEDUP_FLOOR",
    "BYTES_RATIO_CEILING",
    "DURABILITY_FLOOR",
    "RECOVERY_GAPS",
    "REFERENCE",
    "METADATA_BOUND",
    "bench_cell",
    "bench_codecs",
    "bench_one_pass",
    "bench_recovery",
    "bench_service",
    "write_report",
]

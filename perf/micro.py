"""Isolating microbenches: one layer at a time, no cluster around it.

Each bench reports the **median of** :data:`REPEATS` **repeats** with the
min and max it saw, as a :class:`stats.Spread`.  They feed the per-layer metrics
that a traced window cannot isolate (a bare transport echo, a bare WAL, a
protocol pair with no IO) and cross-check the ones it can
(``core.write_us`` against :func:`protocol_loop`).

:func:`replay_frames` and :func:`replay_updates` are the offline half of
the traced window's ``wire`` layer: the frames and update messages
captured at the transport and protocol boundaries go back through the
public codec functions, and the time that takes is the codec's share.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.hotpaths import bench_deplog
from repro.core.base import ProtocolConfig, protocol_class
from repro.service import wire
from repro.service.durability import SiteWal
from repro.service.transport import LoopbackTransport, TcpTransport
from repro.store.placement import default_variables, make_placement

from kv import free_tcp_addresses
from stats import Spread

REPEATS = 5


def _micro(values: Sequence[float]) -> Spread:
    return Spread(values, what="repeats")


def _repeat(fn: Callable[[], float], repeats: int) -> Spread:
    return _micro([fn() for _ in range(repeats)])


# ----------------------------------------------------------------------
# wire: offline replay of what the traced window captured
# ----------------------------------------------------------------------
def replay_frames(
    frames: List[Tuple[Dict[str, Any], Any]], repeats: int = REPEATS
) -> Dict[str, Spread]:
    """Per-frame encode and decode cost (microseconds) of the captured
    frames under the codec each was sent with."""
    encode = wire.encode_frame
    decode = wire.decode_body
    bodies = [encode(frame, codec=codec)[4:] for frame, codec in frames]
    n = len(frames)

    def enc() -> float:
        t0 = time.perf_counter()
        for frame, codec in frames:
            encode(frame, codec=codec)
        return (time.perf_counter() - t0) / n * 1e6

    def dec() -> float:
        t0 = time.perf_counter()
        for body in bodies:
            decode(body)
        return (time.perf_counter() - t0) / n * 1e6

    return {
        "encode_us_per_frame": _repeat(enc, repeats),
        "decode_us_per_frame": _repeat(dec, repeats),
    }


def replay_updates(
    updates: List[Any], itab_names: Sequence[str], repeats: int = REPEATS
) -> Dict[str, Any]:
    """Cost of turning an ``UpdateMessage`` into a repl frame and back —
    ``DeltaEncoder.encode_update`` / ``DeltaDecoder.decode_update``, one
    chain per (sender, destination) link in write order, exactly the
    stream a v4 peer link carries — and the byte split of those frames."""
    links: Dict[Tuple[int, int], List[Any]] = {}
    for msg in updates:
        links.setdefault((msg.sender, msg.dest), []).append(msg)
    itab = wire.InternTable(itab_names)
    n = len(updates)
    codec = wire.BINARY_CODEC_V4

    def encode_all() -> Tuple[float, List[List[Dict[str, Any]]]]:
        out = []
        t0 = time.perf_counter()
        for msgs in links.values():
            enc = wire.DeltaEncoder(itab)
            out.append([enc.encode_update(m, ls) for ls, m in enumerate(msgs, 1)])
        return (time.perf_counter() - t0) / n * 1e6, out

    _, chains = encode_all()
    # what the receiver decodes is the frame after its trip through the
    # byte codec, not the sender's dict
    wired = [
        [wire.decode_body(codec.encode(f)[4:]) for f in chain] for chain in chains
    ]

    def decode_all() -> float:
        t0 = time.perf_counter()
        for chain in wired:
            dec = wire.DeltaDecoder()
            for frame in chain:
                dec.decode_update(dict(frame), itab)
        return (time.perf_counter() - t0) / n * 1e6

    repl_bytes = value_bytes = 0
    for chain in chains:
        for frame in chain:
            repl_bytes += len(codec.encode(frame)) - 4
            value = frame["value"]
            value_bytes += len(value) if isinstance(value, (str, bytes)) else 0
    return {
        "update_encode_us": _repeat(lambda: encode_all()[0], repeats),
        "update_decode_us": _repeat(decode_all, repeats),
        "repl_bytes_per_frame": repl_bytes / n,
        "meta_bytes_per_repl": (repl_bytes - value_bytes) / n,
    }


# ----------------------------------------------------------------------
# transport: bare listen/connect echo, no server
# ----------------------------------------------------------------------
async def _echo_rtt(transport: Any, address: str, rounds: int, repeats: int) -> Spread:
    async def echo(conn: Any) -> None:
        conn.negotiate(wire.codec_for(wire.WIRE_VERSION), wire.WIRE_VERSION)
        while True:
            frame = await conn.recv()
            if frame is None:
                return
            await conn.send(frame)

    listener = await transport.listen(address, echo)
    conn = await transport.connect(address)
    conn.negotiate(wire.codec_for(wire.WIRE_VERSION), wire.WIRE_VERSION)
    ping = wire.make_frame("ping")
    try:
        for _ in range(20):  # connection warm-up
            await conn.send(ping)
            await conn.recv()
        values = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(rounds):
                await conn.send(ping)
                await conn.recv()
            values.append((time.perf_counter() - t0) / rounds * 1e6)
    finally:
        await conn.close()
        await listener.close()
    return _micro(values)


async def transport_echo(rounds: int, repeats: int = REPEATS) -> Dict[str, Spread]:
    """Round-trip microseconds of a ``ping``-sized frame over each bare
    transport: encode, hand-off (queue or socket), decode, and back."""
    loopback = LoopbackTransport()
    out = {"loopback": await _echo_rtt(loopback, "echo", rounds, repeats)}
    await loopback.close()
    address = free_tcp_addresses(1)[0]
    out["tcp"] = await _echo_rtt(TcpTransport(), address, rounds, repeats)
    return out


# ----------------------------------------------------------------------
# durability: a bare SiteWal, no server
# ----------------------------------------------------------------------
async def wal_micro(
    scratch: str, appends: int, value_size: int = 1024, repeats: int = REPEATS
) -> Dict[str, Spread]:
    """Microseconds per ``SiteWal.append`` of a ``wal.put`` record and
    milliseconds per forced ``SiteWal.sync`` (fsync policy "none" so the
    group-fsync task does not run beside the timed appends)."""
    data_dir = os.path.join(scratch, f"wal-micro-{os.getpid()}")
    wal = SiteWal(data_dir, fsync="none")
    frame = wire.make_frame(
        "wal.put", var="x0", value="v".ljust(value_size, "x"), w=[0, 1]
    )
    try:
        append_us = []
        sync_ms = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(appends):
                wal.append(frame)
            t1 = time.perf_counter()
            await wal.sync()
            t2 = time.perf_counter()
            append_us.append((t1 - t0) / appends * 1e6)
            sync_ms.append((t2 - t1) * 1e3)
    finally:
        wal.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return {"append_micro_us": _micro(append_us), "sync_micro_ms": _micro(sync_ms)}


# ----------------------------------------------------------------------
# core: two protocol instances driven directly, no IO
# ----------------------------------------------------------------------
def protocol_loop(writes: int, repeats: int = REPEATS) -> Dict[str, Spread]:
    """Microseconds per ``write`` at one opt-track site and per
    ``can_apply`` + ``apply_update`` at the other: the protocol's own
    cost with nothing around it, to hold ``core.write_us`` /
    ``core.apply_us`` from the traced window against."""
    variables = default_variables(4)
    placement = make_placement("round-robin", 2, len(variables), 2)
    cls = protocol_class("opt-track")
    write_us = []
    apply_us = []
    for _ in range(repeats):
        a, b = (
            cls(ProtocolConfig(n=2, site=s, replicas_of=placement)) for s in (0, 1)
        )
        t_write = t_apply = 0.0
        clock = time.perf_counter
        for i in range(writes):
            t0 = clock()
            result = a.write(variables[i % len(variables)], i)
            t1 = clock()
            for msg in result.messages:
                if not b.can_apply(msg):
                    raise AssertionError("in-order update refused by can_apply")
                b.apply_update(msg)
            t_write += t1 - t0
            t_apply += clock() - t1
        write_us.append(t_write / writes * 1e6)
        apply_us.append(t_apply / writes * 1e6)
    return {"write_micro_us": _micro(write_us), "apply_micro_us": _micro(apply_us)}


def deplog_micro(inner: int, repeats: int = REPEATS) -> Dict[str, Spread]:
    """The four hot ``DepLog`` operations via the repo's own
    ``repro.analysis.hotpaths.bench_deplog`` (microseconds per call)."""
    runs = [bench_deplog(inner=inner) for _ in range(repeats)]
    return {
        name: _micro([run[f"{name}_usec"] for run in runs])
        for name in ("multicast_copies", "absorb", "retire", "copy_for_dest")
    }


async def run_all(scratch: str, fast: bool) -> Dict[str, Spread]:
    """Every workload-independent microbench, keyed by per-layer metric."""
    repeats = 1 if fast else REPEATS
    scale = 0.1 if fast else 1.0
    out: Dict[str, Spread] = {}
    echo = await transport_echo(int(400 * scale), repeats)
    out["transport.echo_us.loopback"] = echo["loopback"]
    out["transport.echo_us.tcp"] = echo["tcp"]
    for name, micro in (await wal_micro(scratch, int(1000 * scale), repeats=repeats)).items():
        out[f"durability.{name}"] = micro
    for name, micro in protocol_loop(int(2000 * scale), repeats).items():
        out[f"core.{name}"] = micro
    for name, micro in deplog_micro(int(200 * scale), repeats).items():
        out[f"deplog.{name}_us"] = micro
    return out

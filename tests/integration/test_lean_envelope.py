"""The lean envelope over real sockets (WIRE_VERSION 6).

After its handshake a connection delimits frames by a LEB128 body
length and sends lean bodies (the frame tag first, no magic or schema
version); the handshake itself keeps the 4-byte length prefix, so an
older peer reads its refusal.  These tests hold the framing where it
is parsed — ``_TcpConnection._split`` against hostile delimiters, a v5
hello against a TCP site — and hold the loopback transport to metering
exactly the bytes TCP writes, which is what makes the benchmark's
loopback ``wire_bytes_per_op`` an honest figure.
"""

import asyncio
import json
import struct

import pytest

from repro.errors import WireError
from repro.obs.registry import MetricsRegistry
from repro.service import wire
from repro.service.harness import ServiceCluster
from repro.service.transport import LoopbackTransport, TcpTransport

SHORT = "x"
#: values whose bodies need a 2-byte and a 3-byte delimiter
MEDIUM, LONG = "m" * 300, "l" * 20_000


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 20.0))


async def free_address():
    probe = await asyncio.start_server(lambda r, w: w.close(), "127.0.0.1", 0)
    address = f"127.0.0.1:{probe.sockets[0].getsockname()[1]}"
    probe.close()
    await probe.wait_closed()
    return address


class TestDelimiter:
    @pytest.mark.parametrize("length", [1, 127, 128, 300, 16_383, 16_384, wire.MAX_FRAME_BYTES])
    def test_round_trip(self, length):
        head = wire.delimiter(length)
        assert len(head) == (1 if length < 128 else 2 if length < 2**14 else 3 if length < 2**21 else 4)
        assert wire.read_delimiter(b"\x07" + head + b"\x00", 1) == (length, len(head) + 1)
        # cut anywhere inside: incomplete, not an error
        for cut in range(1, len(head)):
            assert wire.read_delimiter(head[:cut], 0) == (-1, 0)

    @pytest.mark.parametrize(
        "raw, why",
        [
            (b"\x00", "outside"),                       # zero length
            (b"\x80\x00", "outside"),                   # zero, spelled long
            (wire.delimiter(wire.MAX_FRAME_BYTES + 1), "outside"),
            (b"\xff\xff\xff\xff\x01", "four bytes"),    # a fifth byte
            (b"\x80\x80\x80\x80", "four bytes"),        # ... announced by the fourth
        ],
    )
    def test_hostile_delimiters_raise(self, raw, why):
        with pytest.raises(WireError, match=why):
            wire.read_delimiter(raw, 0)


async def _hostile_peer(payload, then_close):
    """A raw TCP peer that writes ``payload`` at a handshaken client
    connection, then closes or keeps streaming junk; returns what the
    client's ``recv`` did and how large its buffer got."""
    address = await free_address()
    host, port = address.rsplit(":", 1)

    async def serve(reader, writer):
        writer.write(payload)
        await writer.drain()
        if then_close:
            writer.close()
            return
        # keep going: a reader must not buffer its way through this
        try:
            for _ in range(64):
                writer.write(b"\x80" * 4096)
                await writer.drain()
        except ConnectionError:
            pass  # the reader refused and hung up

    server = await asyncio.start_server(serve, host, int(port))
    conn = await TcpTransport().connect(address)
    conn.negotiate(wire.BINARY_CODEC_V4, wire.WIRE_VERSION)
    try:
        outcome = await asyncio.wait_for(conn.recv(), 5.0)
    except WireError as exc:
        outcome = exc
    buffered = len(conn._buf)
    await conn.close()
    server.close()
    await server.wait_closed()
    return outcome, buffered


class TestHostileDelimiterOverTcp:
    @pytest.mark.parametrize(
        "payload",
        [
            b"\x80\x80\x80\x80\x80",                     # over-long varint
            b"\x00",                                     # zero length
            wire.delimiter(wire.MAX_FRAME_BYTES + 1),    # over the cap
        ],
        ids=["over-long", "zero", "over-cap"],
    )
    def test_refused_without_waiting(self, payload):
        outcome, buffered = run(_hostile_peer(payload, then_close=False))
        assert isinstance(outcome, WireError)
        assert buffered <= 65_536  # one read chunk, never a growing buffer

    def test_delimiter_cut_by_eof_is_a_close(self):
        outcome, _ = run(_hostile_peer(b"\x81\x80", then_close=True))
        assert outcome is None

    def test_frames_split_across_reads_and_coalesced(self):
        """Lean frames of 1-, 2- and 3-byte delimiters, written byte by
        byte and then all at once, come out whole and in order."""
        frames = [
            wire.BINARY_CODEC_V4.pack_put("x0", value) for value in (SHORT, MEDIUM, LONG)
        ]
        wired = b"".join(wire.delimiter(len(f) - 4) + f[4:] for f in frames)

        async def main():
            address = await free_address()
            host, port = address.rsplit(":", 1)

            async def serve(reader, writer):
                for i in range(0, 400):
                    writer.write(wired[i : i + 1])
                    await writer.drain()
                writer.write(wired[400:] + wired)
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(serve, host, int(port))
            conn = await TcpTransport().connect(address)
            conn.negotiate(wire.BINARY_CODEC_V4, wire.WIRE_VERSION)
            got = []
            while (message := await conn.recv_message()) is not None:
                got.append(message.value)
            await conn.close()
            server.close()
            await server.wait_closed()
            return got

        assert run(main()) == [SHORT, MEDIUM, LONG] * 2


def _legacy_frame(frame):
    """A frame as a WIRE_VERSION 5 build writes it on a fresh
    connection: the 4-byte length prefix, a JSON body."""
    body = json.dumps(frame).encode()
    return struct.pack(">I", len(body)) + body


class TestOlderPeerOverTcp:
    @pytest.mark.parametrize("kind", ["hello", "link.hello"])
    def test_v5_hello_reads_its_refusal(self, kind):
        async def main():
            addresses = {0: await free_address(), 1: await free_address()}
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      transport=TcpTransport(),
                                      addresses=addresses):
                host, port = addresses[1].rsplit(":", 1)
                reader, writer = await asyncio.open_connection(host, int(port))
                fields = {"src": 0} if kind == "link.hello" else {}
                writer.write(_legacy_frame(
                    {"v": wire.JSON_WIRE_VERSION, "t": kind, "cv": 5, **fields}
                ))
                await writer.drain()
                (length,) = struct.unpack(">I", await reader.readexactly(4))
                reply = json.loads(await reader.readexactly(length))
                tail = await asyncio.wait_for(reader.read(), 2.0)
                writer.close()
                return reply, tail

        reply, tail = run(main())
        assert (reply["t"], reply["code"]) == ("err", "unsupported-version")
        assert "unsupported wire version 5 in a " + kind in reply["msg"]
        assert f"speaks version {wire.WIRE_VERSION} only" in reply["msg"]
        assert tail == b""  # then EOF


HELLO = wire.make_frame("hello", cv=wire.WIRE_VERSION)
HELLO_OK = wire.make_frame("hello.ok", site=0, cv=wire.WIRE_VERSION, itab=[])
CODEC = wire.BINARY_CODEC_V4
#: after the handshake: pre-encoded and dict frames with 1-, 2- and
#: 3-byte delimiters; the first two sent one by one, the rest batched
AFTER = [
    CODEC.pack_put("x0", SHORT),
    wire.make_frame("put", var="x0", value=MEDIUM),
    CODEC.pack_put("x0", LONG),
    wire.make_frame("ping"),
    CODEC.pack_get_ok(MEDIUM, None, 1),
    wire.err_frame("bad-frame", "scripted"),
]


def _expected_bytes():
    """What the sequence puts on the wire, priced independently: the
    handshake behind 4-byte prefixes, the rest behind delimiters."""
    total = sum(len(wire.JSON_CODEC.encode(f)) for f in (HELLO, HELLO_OK))
    for frame in AFTER:
        body = len(frame if type(frame) is bytes else CODEC.encode(frame)) - 4
        total += len(wire.delimiter(body)) + body
    return total


async def _scripted(transport, address):
    """Carry the sequence over one client connection of ``transport``;
    returns what the accepting end received."""
    received = []
    done = asyncio.Event()

    async def handler(conn):
        hello = await conn.recv()
        received.append(hello["t"])
        await conn.send(HELLO_OK)
        conn.negotiate(CODEC, wire.WIRE_VERSION)
        while (frame := await conn.recv()) is not None:
            received.append((frame["t"], len(str(frame.get("value", "")))))
        done.set()

    listener = await transport.listen(address, handler)
    conn = await transport.connect(address)
    await conn.handshake(HELLO, "hello.ok")
    await conn.send(AFTER[0])
    await conn.send(AFTER[1])
    await conn.send_many(AFTER[2:])
    await conn.close()
    await asyncio.wait_for(done.wait(), 5.0)
    await listener.close()
    return received


def _wire_counters(metrics):
    out = {}
    for key, value in metrics.snapshot()["counters"].items():
        if key.startswith(("wire_bytes_", "wire_frame_bytes_total")):
            out[key.replace("transport=loopback", "transport=T").replace("transport=tcp", "transport=T")] = value
    return out


def test_loopback_meters_exactly_what_tcp_writes():
    async def main():
        loop_metrics, tcp_metrics = MetricsRegistry(), MetricsRegistry()
        loopback = LoopbackTransport(metrics=loop_metrics)
        via_loopback = await _scripted(loopback, "site-0")
        await loopback.close()
        via_tcp = await _scripted(TcpTransport(metrics=tcp_metrics), await free_address())
        return via_loopback, via_tcp, _wire_counters(loop_metrics), _wire_counters(tcp_metrics)

    via_loopback, via_tcp, loop_counts, tcp_counts = run(main())
    assert via_loopback == via_tcp == [
        "hello", ("put", 1), ("put", 300), ("put", 20_000), ("ping", 0),
        ("get.ok", 300), ("err", 0),
    ]
    assert loop_counts == tcp_counts
    sent = tcp_counts["wire_bytes_sent_total{transport=T}"]
    assert sent == tcp_counts["wire_bytes_received_total{transport=T}"] == _expected_bytes()
    kinds = sum(v for k, v in tcp_counts.items() if k.startswith("wire_frame_bytes_total"))
    assert kinds == sent  # the per-kind split adds up to the total

"""Transports for the KV service: real TCP and an in-process loopback.

Both speak the same interface — a :class:`Transport` can ``listen`` at an
address (frames arrive on per-connection handler tasks) and ``connect`` to
one (returning a bidirectional :class:`Connection` of whole frames).  The
server and client layers are written against this interface only, so every
test can run the full service stack over :class:`LoopbackTransport` with no
sockets, deterministically, and with the causal sanitizer shadow-checking
the very same code paths that run over TCP in production.

The loopback is not a shortcut past the wire format: every frame crosses
as its encoded bytes and is decoded on the receiving side, so codec bugs
(unserializable metadata, field drift) fail loopback tests too.  It
also implements :meth:`LoopbackTransport.kill` — an abrupt site failure
that drops the listener and severs every established connection — which is
what the chaos tests and ``repro-kv smoke`` use to exercise failover.

Both transports' own connections carry a frame as bytes end to end:
``send`` / ``send_many`` / ``write_many`` take a frame dict (encoded under
the connection's codec) or, once the handshake installed the binary codec,
a frame one of :class:`repro.service.wire.BinaryCodec`'s one-pass encoders
already encoded; a received body is decoded only when it is handed out, by
the decoder the receiving call names — frame dicts from ``recv`` /
``recv_many``, messages built in one pass from ``recv_message`` /
``recv_messages``.  A :class:`Connection` subclass that implements only
the dict-speaking methods (a wrapper that times, delays or drops frames)
keeps exchanging frame dicts; the bytes on the wire are the same.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ServiceError
from repro.service import wire

#: per-connection frame handler installed by ``Transport.listen``
ConnHandler = Callable[["Connection"], Awaitable[None]]

#: sentinel the loopback hands over to mark an orderly or severed EOF
_EOF = object()

#: bytes per TCP read; large enough to swallow a whole coalesced batch
_READ_CHUNK = 65536


class WireMeter:
    """Bytes-on-the-wire counters for one transport instance.

    Caches the two labelled counter handles
    (``wire_bytes_sent_total{transport=...}`` /
    ``wire_bytes_received_total{transport=...}``) so the per-frame cost
    is one ``inc`` — connections carry a meter reference (or ``None``,
    the zero-cost-off discipline of the obs layer).

    Sent bytes are additionally attributed *per frame kind* under
    ``wire_frame_bytes_total{kind=...,transport=...}`` (a deliberately
    distinct name: three consumers sum every counter prefixed
    ``wire_bytes_sent_total`` and must not double-count).  The split is
    sender-side only — a TCP receiver meters raw segments before any
    frame boundary exists — which loses nothing: every frame some
    connection received, some connection sent.
    """

    __slots__ = ("sent", "received", "_metrics", "_transport", "_kinds")

    def __init__(self, metrics: Any, transport: str) -> None:
        self.sent = metrics.counter("wire_bytes_sent_total", transport=transport)
        self.received = metrics.counter(
            "wire_bytes_received_total", transport=transport
        )
        self._metrics = metrics
        self._transport = transport
        self._kinds: Dict[str, Any] = {}

    def kind(self, frame_type: str) -> Any:
        """The cached ``wire_frame_bytes_total`` counter handle for one
        frame kind; the cache keeps the steady-state cost at one dict
        hit + one ``inc`` per frame."""
        counter = self._kinds.get(frame_type)
        if counter is None:
            counter = self._metrics.counter(
                "wire_frame_bytes_total",
                transport=self._transport,
                kind=frame_type,
            )
            self._kinds[frame_type] = counter
        return counter


#: the dict decode of one received body (self-contained repl frames
#: annotated with their wire bytes, see :func:`wire.decode_annotated`)
_decode_annotated = wire.decode_annotated


class Connection(ABC):
    """One bidirectional, ordered stream of frames.

    Every connection carries a *codec* — :data:`wire.JSON_CODEC` for the
    one handshake frame, then whatever :meth:`negotiate` installs
    (:data:`wire.BINARY_CODEC_V4`; see the support window in
    :mod:`repro.service.wire`).  The codec governs how *this side
    encodes*; inbound frames are decoded by sniffing, so a connection can
    receive binary frames without switching its own send side (a wrapper
    that never forwards :meth:`negotiate` keeps sending JSON, legibly).
    Alongside the codec a connection records the handshake's version:
    ``agreed_version == wire.WIRE_VERSION`` is how a server tells a
    handshaken connection from one that has yet to say hello.
    """

    #: the binary codec whose one-pass encoders this connection takes
    #: pre-encoded frames from (``bytes``, see ``BinaryCodec.pack_*``) on
    #: ``send`` / ``send_many`` / ``write_many`` — or ``None`` when every
    #: frame must travel as a frame dict: before the handshake, and for
    #: the whole life of a connection class that does not override this
    #: default (wrappers that time, delay, drop or log frame dicts keep
    #: seeing frame dicts)
    one_pass: Optional[wire.BinaryCodec] = None
    #: active send codec; class-level default, shadowed by negotiate()
    _codec: Any = wire.JSON_CODEC
    #: the wire version a completed handshake recorded; 0 before it
    _agreed: int = 0
    #: byte counters, set by the owning transport when it has a registry
    _meter: Optional[WireMeter] = None

    @property
    def codec(self) -> Any:
        return self._codec

    @property
    def wire_version(self) -> int:
        """The send codec's ``version``: the frame schema version under
        JSON, :data:`wire.WIRE_VERSION` under the binary codec."""
        return self._codec.version

    @property
    def agreed_version(self) -> int:
        """The wire version this connection's handshake recorded (0
        before one)."""
        return self._agreed

    def negotiate(self, codec: Any, agreed: Optional[int] = None) -> None:
        """Switch this side's send codec for all subsequent frames,
        recording the handshake's version when given."""
        self._codec = codec
        if agreed is not None:
            self._agreed = agreed

    async def handshake(self, hello: Dict[str, Any], ok_kind: str) -> Dict[str, Any]:
        """The dialing side of the support window: send the one JSON
        ``hello`` / ``link.hello``, and unless the reply is the
        current-version ``ok_kind`` raise the refusal
        (:func:`wire.unsupported_version`; a peer's ``err`` is quoted) —
        there is nothing older to fall back to.  On success this side
        switches to the binary codec and the reply is returned.  The
        caller bounds the wait."""
        await self.send(hello)
        reply = await self.recv()
        if reply is None:
            raise ConnectionResetError(
                f"{self.peer} closed the connection during the handshake"
            )
        kind = reply.get("t")
        if kind != ok_kind or reply.get("cv") != wire.WIRE_VERSION:
            where = f"the peer's {kind} reply"
            if kind == "err":
                where += f" ({reply.get('code')}: {reply.get('msg')})"
            raise wire.unsupported_version(reply.get("cv"), where)
        self.negotiate(wire.BINARY_CODEC_V4, wire.WIRE_VERSION)
        return reply

    @abstractmethod
    async def send(self, frame: Dict[str, Any]) -> None:
        """Send one frame.  Raises ``ConnectionError`` once the peer is
        gone — callers treat that as "site unreachable" and fail over."""

    async def send_many(self, frames: List[Dict[str, Any]]) -> None:
        """Send a batch of frames with at most one flush (writev-style
        coalescing on transports that buffer).  The default sends them
        one by one."""
        for frame in frames:
            await self.send(frame)

    def writable(self) -> bool:
        """True when :meth:`write_many` can take a batch right now
        without queueing it behind bytes the transport still holds —
        the test a :class:`~repro.service.server.PeerLink` makes before
        writing through from the caller's loop step.  The default is
        *not writable*: a connection that only implements the awaitable
        ``send`` / ``send_many`` pair (wrappers that time, delay or drop
        frames) keeps working through the link's writer task."""
        return False

    def write_many(self, frames: List[Dict[str, Any]]) -> None:
        """Synchronous ``send_many`` without the flush wait: encode the
        batch and hand it to the transport before returning.  Call only
        while :meth:`writable`; raises ``ConnectionError`` when the peer
        is known to be gone."""
        raise NotImplementedError(
            f"{type(self).__name__} is never writable()"
        )

    @abstractmethod
    async def recv(self) -> Optional[Dict[str, Any]]:
        """Receive the next frame, or ``None`` on EOF / severed peer."""

    async def recv_many(self) -> Optional[List[Dict[str, Any]]]:
        """Receive every frame already available, waiting only for the
        first.  Returns a non-empty list, or ``None`` on EOF.  Frames
        that arrived *before* an EOF are still delivered; the EOF is
        reported by the next call."""
        frame = await self.recv()
        return None if frame is None else [frame]

    async def recv_message(
        self, itab: Optional[wire.InternTable] = None, link: Any = None
    ) -> Any:
        """:meth:`recv`, decoding in one pass where the frame allows: a
        hot kind on the binary codec arrives as the message it carries
        (:func:`wire.decode_message`; ``itab`` resolves interned
        variable ids, ``link`` is this end of a peer link's chain),
        anything else as its frame dict.  The default is the frame
        dict for everything — callers dispatch on the type of what they
        get (and pass a link's dicts through ``link.restore``), so a
        connection that only implements ``recv`` interoperates
        unchanged."""
        return await self.recv()

    async def recv_messages(
        self, itab: Optional[wire.InternTable] = None, link: Any = None
    ) -> Optional[List[Any]]:
        """:meth:`recv_many` with :meth:`recv_message`'s decoding."""
        return await self.recv_many()

    @abstractmethod
    async def close(self) -> None:
        """Close this side; the peer's ``recv`` returns ``None``."""

    @property
    @abstractmethod
    def peer(self) -> str:
        """The remote address, for diagnostics."""


class _PlainConnection(Connection):
    """What the two transports' own endpoints share: once the binary
    codec is installed they take pre-encoded frames beside frame
    dicts, and hand a received body to whichever decoder the caller
    asks for — :func:`wire.decode_annotated` behind ``recv`` /
    ``recv_many``, :func:`wire.decode_message` behind ``recv_message``
    / ``recv_messages`` — instead of decoding it on arrival."""

    def negotiate(self, codec: Any, agreed: Optional[int] = None) -> None:
        super().negotiate(codec, agreed)
        self.one_pass = codec if isinstance(codec, wire.BinaryCodec) else None

    def _encode(self, frame: Any) -> Tuple[bytes, bytes]:
        """The delimiter and the body one outbound frame puts on the
        wire (a pre-encoded frame is already encoded), metered by kind:
        the 4-byte length prefix until :meth:`negotiate` installs the
        binary codec, the LEB128 one (:func:`wire.delimiter`) after."""
        if type(frame) is bytes:
            encoded = frame
        else:
            encoded = wire.encode_frame(frame, codec=self._codec)
        body = encoded[4:]
        head = encoded[:4] if self.one_pass is None else wire.delimiter(len(body))
        meter = self._meter
        if meter is not None:
            kind = wire.encoded_kind(frame) if encoded is frame else frame["t"]
            meter.kind(kind).inc(len(head) + len(body))
        return head, body

    @abstractmethod
    async def _next_body(self) -> Optional[bytes]:
        """The next received frame body, or ``None`` on EOF."""

    @abstractmethod
    async def _next_bodies(self) -> Optional[List[bytes]]:
        """Every body already available, waiting only for the first;
        ``None`` on EOF (bodies that beat an EOF are still delivered,
        the next call reports it)."""

    async def recv(self) -> Optional[Dict[str, Any]]:
        body = await self._next_body()
        return None if body is None else _decode_annotated(body)

    async def recv_many(self) -> Optional[List[Dict[str, Any]]]:
        bodies = await self._next_bodies()
        return None if bodies is None else [_decode_annotated(b) for b in bodies]

    async def recv_message(
        self, itab: Optional[wire.InternTable] = None, link: Any = None
    ) -> Any:
        body = await self._next_body()
        return None if body is None else wire.decode_message(body, itab, link)

    async def recv_messages(
        self, itab: Optional[wire.InternTable] = None, link: Any = None
    ) -> Optional[List[Any]]:
        bodies = await self._next_bodies()
        if bodies is None:
            return None
        decode = wire.decode_message
        return [decode(body, itab, link) for body in bodies]


class Listener(ABC):
    @abstractmethod
    async def close(self) -> None:
        """Stop accepting; established connections are left to their
        handlers (``kill`` is the abrupt variant, loopback only)."""


class Transport(ABC):
    @abstractmethod
    async def listen(self, address: str, handler: ConnHandler) -> Listener:
        """Serve ``address``; each inbound connection runs ``handler`` in
        its own task until the handler returns or the connection dies."""

    @abstractmethod
    async def connect(self, address: str) -> Connection:
        """Open a connection.  Raises ``ConnectionError`` when the address
        is not listening (a dead or killed site)."""


# ======================================================================
# loopback
# ======================================================================
class _LoopbackConnection(_PlainConnection):
    """One endpoint of an in-process connection pair.

    ``_rx`` holds the bodies of frames the peer sent; the peer appends
    to it and wakes this side's one reader through ``_waiter``.  A
    connection has one reader, so a deque and one future do what an
    ``asyncio.Queue`` would, without its per-item getter bookkeeping.
    Frames cross as their encoded bytes, so what the receiver decodes
    is exactly what *would* hit a socket.
    """

    def __init__(self, peer_name: str, delay: float = 0.0) -> None:
        self._rx: Deque[bytes] = deque()
        #: the peer closed, or this side was severed: once ``_rx`` is
        #: drained every read reports EOF
        self._eof = False
        #: the future this side's reader parks on while ``_rx`` is empty
        self._waiter: Optional[asyncio.Future] = None
        self._peer: Optional["_LoopbackConnection"] = None
        self._peer_name = peer_name
        self._closed = False
        #: artificial one-way delivery delay in seconds (0 = immediate);
        #: models WAN latency so loopback benches can reach the regime
        #: where unacked windows — and so causal metadata — grow
        self._delay = delay
        self._pending: Optional[asyncio.Queue] = None
        self._pump: Optional[asyncio.Task] = None

    def _deliver(self, item: Any) -> None:
        """Land ``item`` — a body, or the EOF sentinel — in ``_rx`` and
        wake the reader."""
        if item is _EOF:
            self._eof = True
        else:
            self._rx.append(item)
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    def _enqueue(self, item: Any) -> None:
        """Hand ``item`` to this side's receive buffer, after this
        connection's one-way delay when one is configured.  The pump
        task drains in send order with monotone due times, so FIFO per
        connection is preserved exactly."""
        if self._delay <= 0.0:
            self._deliver(item)
            return
        if self._pending is None:
            self._pending = asyncio.Queue()
            self._pump = asyncio.ensure_future(self._run_pump())
        self._pending.put_nowait(
            (asyncio.get_running_loop().time() + self._delay, item)
        )

    async def _run_pump(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            due, item = await self._pending.get()
            wait = due - loop.time()
            if wait > 0:
                await asyncio.sleep(wait)
            self._deliver(item)

    async def send(self, frame: Any) -> None:
        self.write_many((frame,))

    def writable(self) -> bool:
        # an in-process buffer never pushes back; a dead peer surfaces
        # as the ConnectionResetError write_many raises
        return True

    def write_many(self, frames: Any) -> None:
        peer = self._peer
        if self._closed or peer is None or peer._closed:
            raise ConnectionResetError(f"loopback peer {self._peer_name} is gone")
        # one liveness check for the whole batch; each frame crosses as
        # its encoded body, and the receiver wakes once (the first body
        # wakes it, the rest land before it runs)
        encode = self._encode
        enqueue = peer._enqueue
        total = 0
        for frame in frames:
            head, body = encode(frame)
            total += len(head) + len(body)
            enqueue(body)
        meter = self._meter
        if meter is not None:
            meter.sent.inc(total)
            meter.received.inc(total)

    async def send_many(self, frames: Any) -> None:
        self.write_many(frames)

    async def _readable(self) -> bool:
        """Wait until ``_rx`` holds a body; False once it never will
        (bodies that beat the EOF are handed out first)."""
        while not self._rx:
            if self._eof:
                return False
            waiter = self._waiter = asyncio.get_running_loop().create_future()
            await waiter
        return True

    async def _next_body(self) -> Optional[bytes]:
        return self._rx.popleft() if await self._readable() else None

    async def _next_bodies(self) -> Optional[List[bytes]]:
        if not await self._readable():
            return None
        bodies = list(self._rx)
        self._rx.clear()
        return bodies

    async def close(self) -> None:
        self._sever()
        peer = self._peer
        if peer is not None and not peer._closed:
            # orderly EOF travels the delayed path, behind in-flight frames
            peer._enqueue(_EOF)

    def _sever(self) -> None:
        """Mark dead and unblock a pending ``recv`` on this side.
        Abrupt: delayed frames still in flight are lost (the pump dies
        with the connection), like a cut cable."""
        if not self._closed:
            self._closed = True
            if self._pump is not None:
                self._pump.cancel()
                self._pump = None
            self._deliver(_EOF)

    @property
    def peer(self) -> str:
        return self._peer_name


class _LoopbackListener(Listener):
    def __init__(self, transport: "LoopbackTransport", address: str) -> None:
        self._transport = transport
        self._address = address

    async def close(self) -> None:
        self._transport._handlers.pop(self._address, None)


class LoopbackTransport(Transport):
    """Deterministic in-process transport (see module docstring).

    Single-event-loop only.  Every established connection endpoint is
    tracked per listening address so :meth:`kill` can sever them all.
    """

    def __init__(self, metrics: Any = None, delay: float = 0.0) -> None:
        self._handlers: Dict[str, ConnHandler] = {}
        #: established endpoints per server address, for kill()
        self._endpoints: Dict[str, Set[_LoopbackConnection]] = {}
        self._tasks: Set[asyncio.Task] = set()
        #: one-way frame delivery delay (seconds) applied to every
        #: connection — the WAN-latency knob of the metadata-bound bench
        self.delay = delay
        self._meter = (
            None if metrics is None else WireMeter(metrics, "loopback")
        )

    async def listen(self, address: str, handler: ConnHandler) -> Listener:
        if address in self._handlers:
            raise ServiceError(f"loopback address {address!r} already listening")
        self._handlers[address] = handler
        self._endpoints.setdefault(address, set())
        return _LoopbackListener(self, address)

    async def connect(self, address: str) -> Connection:
        handler = self._handlers.get(address)
        if handler is None:
            raise ConnectionRefusedError(f"no loopback listener at {address!r}")
        client_end = _LoopbackConnection(peer_name=address, delay=self.delay)
        server_end = _LoopbackConnection(peer_name="client", delay=self.delay)
        client_end._peer = server_end
        server_end._peer = client_end
        client_end._meter = self._meter
        server_end._meter = self._meter
        self._endpoints[address].update((client_end, server_end))
        task = asyncio.ensure_future(handler(server_end))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client_end

    def kill(self, address: str) -> None:
        """Abrupt site failure: stop listening at ``address`` and sever
        every connection established through it (both endpoints — in-flight
        frames are lost, pending sends raise, pending recvs return EOF)."""
        self._handlers.pop(address, None)
        for end in self._endpoints.pop(address, set()):
            end._sever()

    async def close(self) -> None:
        for address in list(self._handlers):
            self.kill(address)
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass


# ======================================================================
# TCP
# ======================================================================
def split_address(address: str) -> Tuple[str, int]:
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ServiceError(f"TCP address must be host:port, got {address!r}")
    return host, int(port)


class _TcpConnection(_PlainConnection):
    """Frames over one TCP stream, with its own read buffer so a batch
    of frames that arrived in one segment is split without extra reads,
    and coalesced writes so a batch flushes with one ``drain``."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, name: str
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._name = name
        self._buf = bytearray()
        #: bodies of complete frames received and not yet handed out
        self._bodies: deque = deque()

    async def send(self, frame: Any) -> None:
        self.write_many((frame,))
        await self._writer.drain()

    def writable(self) -> bool:
        # an empty write buffer means the kernel took every earlier
        # byte: one more batch cannot pile up behind a slow peer.  Once
        # it is non-empty, writers go through send_many and its drain —
        # the stream's own backpressure
        transport = self._writer.transport
        return not transport.is_closing() and transport.get_write_buffer_size() == 0

    def write_many(self, frames: Any) -> None:
        # one writev-style buffer append for the whole batch
        batch = b"".join(part for frame in frames for part in self._encode(frame))
        if self._meter is not None:
            self._meter.sent.inc(len(batch))
        self._writer.write(batch)

    async def send_many(self, frames: Any) -> None:
        if not frames:
            return
        # ONE drain for the whole batch — this is the flush the
        # per-frame path pays once per frame
        self.write_many(frames)
        await self._writer.drain()

    async def _fill(self) -> bool:
        """Read one chunk into the buffer; False on EOF/reset."""
        try:
            data = await self._reader.read(_READ_CHUNK)
        except (ConnectionError, OSError):
            return False
        if not data:
            return False
        if self._meter is not None:
            self._meter.received.inc(len(data))
        self._buf += data
        return True

    def _split(self) -> None:
        """Move the body of every complete frame in the buffer to
        ``_bodies`` (decoding is the receiving call's choice).  Before
        the handshake only the first: the framing switches once
        :meth:`negotiate` has run on it."""
        buf, pos, end = self._buf, 0, len(self._buf)
        if self.one_pass is None:
            if end >= 4 and end - 4 >= (n := wire.frame_length(bytes(buf[:4]))):
                self._bodies.append(bytes(buf[4 : 4 + n]))
                pos = 4 + n
        while self.one_pass is not None and pos < end:
            n, start = wire.read_delimiter(buf, pos)
            if n < 0 or end - start < n:
                break
            self._bodies.append(bytes(buf[start : start + n]))
            pos = start + n
        if pos:
            del buf[:pos]

    async def _next_body(self) -> Optional[bytes]:
        self._split()  # what the handshake frame left in the buffer
        while not self._bodies:
            if not await self._fill():
                return None
            self._split()
        return self._bodies.popleft()

    async def _next_bodies(self) -> Optional[List[bytes]]:
        self._split()
        while not self._bodies:
            if not await self._fill():
                return None
            self._split()
        bodies = list(self._bodies)
        self._bodies.clear()
        return bodies

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    @property
    def peer(self) -> str:
        return self._name


class _TcpListener(Listener):
    def __init__(self, server: asyncio.AbstractServer) -> None:
        self._server = server

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()


class TcpTransport(Transport):
    """Frames over asyncio TCP streams; addresses are ``host:port``."""

    def __init__(self, metrics: Any = None) -> None:
        self._meter = None if metrics is None else WireMeter(metrics, "tcp")

    async def listen(self, address: str, handler: ConnHandler) -> Listener:
        host, port = split_address(address)

        async def on_client(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            name = "%s:%s" % (writer.get_extra_info("peername") or ("?", "?"))[:2]
            conn = _TcpConnection(reader, writer, name)
            conn._meter = self._meter
            try:
                await handler(conn)
            finally:
                # non-awaiting close: this task may already be cancelled
                # (loop shutdown), and awaiting wait_closed here would
                # re-raise CancelledError out of the finally block
                try:
                    writer.close()
                except (ConnectionError, OSError, RuntimeError):
                    pass

        server = await asyncio.start_server(on_client, host, port)
        return _TcpListener(server)

    async def connect(self, address: str) -> Connection:
        host, port = split_address(address)
        reader, writer = await asyncio.open_connection(host, port)
        conn = _TcpConnection(reader, writer, address)
        conn._meter = self._meter
        return conn


__all__ = [
    "Connection",
    "Listener",
    "Transport",
    "LoopbackTransport",
    "TcpTransport",
    "WireMeter",
    "split_address",
]

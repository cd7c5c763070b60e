"""A remote read is judged where its reply lands, and a fetch is served
where it lands when it can be.

The requesting site judges a ``fetch.ok`` (freshness gate, WAL record,
merge, read hooks) in the link reader's own step, in FIFO order with
the acks that arrive behind it on the same connection.  Judging it any
later lets those acks' ack-driven GC clear the serving site's
destination bit from the very log records the gate checks, and a reply
the site's own completed write made stale is then accepted.

The serving site answers a fetch it can already serve in the link
handler's own step; only a fetch that must wait on apply progress gets
a task, because the frames that unblock it may be queued behind it on
the same connection.
"""

import asyncio
from collections import deque

import pytest

from repro.core.base import ProtocolConfig, protocol_class
from repro.core.messages import FetchReply, FetchRequest
from repro.errors import ServiceUnavailableError
from repro.service import wire
from repro.service.harness import ServiceCluster
from repro.service.server import SiteServer
from repro.service.transport import Connection, LoopbackTransport
from tests.conftest import open_handshaken
from tests.paper_literal import use_paper_literal_reads


class HoldingConnection(Connection):
    """Site 2's link connection to site 1.  Once armed, it holds every
    frame it receives from the next ``fetch.ok`` on, in order, until a
    ``repl.ackp`` has arrived behind it; the reader then gets the held
    frames back to back."""

    def __init__(self, inner, transport):
        self._inner = inner
        self._transport = transport
        self._held = deque()
        self._releasing = False

    @property
    def codec(self):
        return self._inner.codec

    @property
    def agreed_version(self):
        return self._inner.agreed_version

    def negotiate(self, codec, agreed=None):
        self._inner.negotiate(codec, agreed)

    async def send(self, frame):
        await self._inner.send(frame)

    async def send_many(self, frames):
        await self._inner.send_many(frames)

    async def recv(self):
        t = self._transport
        while True:
            if self._releasing and self._held:
                return self._held.popleft()
            self._releasing = False
            frame = await self._inner.recv()
            if frame is None:
                return None
            if t.armed and frame["t"] == "fetch.ok":
                t.armed = False
                t.holding.set()
            if not t.holding.is_set():
                return frame
            self._held.append(frame)
            if frame["t"] == "repl.ackp":
                t.holding.clear()
                t.released += 1
                self._releasing = True

    async def close(self):
        await self._inner.close()

    @property
    def peer(self):
        return self._inner.peer


class HoldingTransport(LoopbackTransport):
    def __init__(self):
        super().__init__()
        self.armed = False
        self.holding = asyncio.Event()
        self.released = 0

    async def connect(self, address):
        inner = await super().connect(address)
        return HoldingConnection(inner, self) if address == "site-1" else inner


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_reply_is_judged_before_the_acks_behind_it(strict, monkeypatch):
    """``b`` puts ``x = v2`` after ``a``'s fetch of ``x`` was served
    ``v1`` and before the reply is read; the ack for ``v2`` lands right
    behind the reply.  Judged after that ack, the reply looks fresh
    (GC cleared site 1 from ``v2``'s record) and ``a`` reads ``v1``
    after its own site completed ``v2``.  ``lenient`` runs the
    paper-literal read (``tests/paper_literal.py``): the gate alone
    must hold there too."""
    if not strict:
        use_paper_literal_reads(monkeypatch)

    async def main():
        transport = HoldingTransport()
        async with ServiceCluster(
            3, 1, "opt-track", placement={"x": (1,)},
            sanitize=True, transport=transport,
        ) as cluster:
            a, b = cluster.client(home=2), cluster.client(home=2)
            await b.put("x", "v1")
            await cluster.quiesce()
            transport.armed = True
            read = asyncio.ensure_future(a.get("x"))
            await asyncio.wait_for(transport.holding.wait(), 2.0)
            await b.put("x", "v2")  # completes while the reply is held
            value, _, by = await asyncio.wait_for(read, 2.0)
            await cluster.quiesce()
            for client in (a, b):
                await client.close()
            return value, by, transport.released

    value, by, released = asyncio.run(main())
    assert released == 1
    assert (value, by) == ("v2", 1)


class CountingLoop(asyncio.SelectorEventLoop):
    """Counts the tasks created while ``counting`` is set, by name of
    the coroutine they run."""

    def __init__(self):
        super().__init__()
        self.counting = False
        self.created = []

    def create_task(self, coro, **kwargs):
        if self.counting:
            self.created.append(coro.__qualname__)
        return super().create_task(coro, **kwargs)


def _run_on(loop, coro):
    try:
        return loop.run_until_complete(asyncio.wait_for(coro, 10.0))
    finally:
        loop.close()


PLACEMENT = {"x": (1,), "y": (0, 1)}


def _serving_site(read_timeout=2.0):
    """Site 1 alone on a loopback transport; the tests dial it
    as site 0 with a hand-driven link chain."""
    transport = LoopbackTransport()
    proto = protocol_class("opt-track")(
        ProtocolConfig(n=3, site=1, replicas_of=PLACEMENT)
    )
    addresses = {s: f"site-{s}" for s in range(3)}
    return transport, SiteServer(
        proto, addresses, transport, read_timeout=read_timeout
    )


def _requester():
    return protocol_class("opt-track")(
        ProtocolConfig(n=3, site=0, replicas_of=PLACEMENT)
    )


async def _dial(transport):
    conn, ok = await open_handshaken(transport, "site-1", src=0)
    return conn, wire.DeltaEncoder(wire.InternTable(ok["itab"]), 0, 1)


async def _next_fetch_reply(conn, link):
    while True:
        msg = await conn.recv_message(link.itab, link)
        assert msg is not None
        if type(msg) is not wire.Ack:
            return msg


def test_answerable_fetch_is_served_in_the_handlers_own_step():
    """A fetch the serving site can answer at once creates no task."""
    loop = CountingLoop()

    async def main():
        transport, server = _serving_site()
        await server.start()
        conn, enc = await _dial(transport)
        req = _requester().make_fetch_request("x", 1)
        assert server.protocol.can_serve_fetch(req)
        loop.counting = True
        conn.write_many([conn.one_pass.pack_fetch(req, enc.itab)])
        reply = await _next_fetch_reply(conn, enc)
        loop.counting = False
        await conn.close()
        await server.stop()
        await transport.close()
        return reply, req

    reply, req = _run_on(loop, main())
    assert reply.fetch_id == req.fetch_id and reply.value is None
    assert loop.created == []


def _fetch_and_update():
    """A fetch of ``x`` from site 0 and the update it depends
    on, which site 1 has not seen yet."""
    writer = _requester()
    (msg,) = writer.write("x", "mine").messages
    return writer.make_fetch_request("x", 1), msg


def test_fetch_is_answered_after_the_updates_batched_behind_it():
    """A fetch and the update it waits for arrive in one batch: the
    fetch is answered at the end of the batch, in place, and its reply
    covers the update queued behind it."""
    loop = CountingLoop()

    async def main():
        transport, server = _serving_site()
        await server.start()
        conn, enc = await _dial(transport)
        req, msg = _fetch_and_update()
        assert req.deps and not server.protocol.can_serve_fetch(req)
        codec = conn.one_pass
        loop.counting = True
        conn.write_many([
            codec.pack_fetch(req, enc.itab),
            enc.pack_update(msg, 1, 0.0, codec),
        ])
        reply = await _next_fetch_reply(conn, enc)
        loop.counting = False
        await conn.close()
        await server.stop()
        await transport.close()
        return reply

    reply = _run_on(loop, main())
    assert reply.value == "mine"
    assert loop.created == []


def test_parked_fetch_is_released_by_an_update_queued_behind_it():
    """The head-of-line case: a strict fetch whose dependency arrives
    in a later batch on the same connection parks in its own task, the
    handler goes on reading, and the fetch completes well within
    ``read_timeout``."""
    loop = CountingLoop()

    async def main():
        transport, server = _serving_site(read_timeout=2.0)
        await server.start()
        conn, enc = await _dial(transport)
        req, msg = _fetch_and_update()
        codec = conn.one_pass
        loop.counting = True
        start = loop.time()
        conn.write_many([codec.pack_fetch(req, enc.itab)])
        for _ in range(100):
            if server._waiting:
                break
            await asyncio.sleep(0)
        parked = server._waiting
        conn.write_many([enc.pack_update(msg, 1, 0.0, codec)])
        reply = await _next_fetch_reply(conn, enc)
        elapsed = loop.time() - start
        loop.counting = False
        await conn.close()
        await server.stop()
        await transport.close()
        return reply, elapsed, parked

    reply, elapsed, parked = _run_on(loop, main())
    assert parked == 1
    assert reply.value == "mine"
    assert elapsed < 1.0
    assert "SiteServer._park_fetch" in loop.created


#: how long the stand-in below sits on the first fetch
FIRST_REPLY_DELAY = 0.2


def _stale_server(answer_refetches):
    """A stand-in for site 1 that answers the link handshake and every
    fetch with a reply served before anything was applied (stale for a
    requester that has written ``x``) — or, unless
    ``answer_refetches``, only the first fetch, after
    ``FIRST_REPLY_DELAY``."""
    itab = wire.InternTable(wire.intern_table_names(PLACEMENT))
    answered = []

    async def handler(conn):
        hello = await conn.recv()
        await conn.send(wire.make_frame(
            "link.ok", site=1, ack=0, cv=wire.WIRE_VERSION,
            itab=list(itab.names), ap=0,
        ))
        conn.negotiate(wire.BINARY_CODEC_V4, wire.WIRE_VERSION)
        link = wire.DeltaDecoder(hello["src"], 1)
        while (frames := await conn.recv_messages(itab, link)) is not None:
            for req in frames:
                if type(req) is not FetchRequest:
                    continue  # the repl frame of the write: never applied
                if answered and not answer_refetches:
                    continue
                if not answered:
                    await asyncio.sleep(FIRST_REPLY_DELAY)
                answered.append(req)
                reply = FetchReply(
                    "x", None, None, 1, 0, req.fetch_id, None, (0, 0, 0)
                )
                conn.write_many([conn.one_pass.pack_fetch_ok(reply, True, itab)])

    return handler, answered


@pytest.mark.parametrize(
    "answer_refetches,expect",
    [(False, "timed out after 1 stale replies"), (True, "stale after 100 retries")],
    ids=["refetch-unanswered", "stale-forever"],
)
def test_stale_refetch_is_bounded(answer_refetches, expect):
    """A stale reply is re-fetched from the link reader; the re-fetch
    gets a fresh ``fetch_timeout`` (its own attempt, not the first
    one's remainder), the read gives up after
    ``MAX_STALE_FETCH_RETRIES``, and either way no waiter is left
    behind."""

    async def main():
        transport = LoopbackTransport()
        handler, answered = _stale_server(answer_refetches)
        await transport.listen("site-1", handler)
        proto = _requester()
        addresses = {s: f"site-{s}" for s in range(3)}
        server = SiteServer(
            proto, addresses, transport, fetch_timeout=0.3, read_timeout=5.0
        )
        await server.start()
        proto.write("x", "mine")  # names site 1: every reply above is stale
        loop = asyncio.get_running_loop()
        start = loop.time()
        with pytest.raises(ServiceUnavailableError) as info:
            await server._remote_get("x")
        elapsed = loop.time() - start
        waiters = dict(server._fetch_waiters)
        await server.stop()
        await transport.close()
        return str(info.value), elapsed, waiters, len(answered)

    msg, elapsed, waiters, answered = asyncio.run(main())
    assert expect in msg
    assert waiters == {}
    if answer_refetches:
        assert answered == 101
    else:
        # the re-fetch's own 0.3 s, counted from the stale reply
        assert answered == 1 and FIRST_REPLY_DELAY + 0.3 <= elapsed < 1.5

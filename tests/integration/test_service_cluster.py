"""The networked KV service end to end over the loopback transport.

Every test here runs the *real* server/client/wire code paths — frames
cross a full encode/decode round trip — with no sockets, so the suite
stays deterministic and CI-safe.  The causal sanitizer shadows the
cluster wherever the scenario produces causally meaningful traffic.
"""

import asyncio

import pytest

from repro.errors import ServiceUnavailableError, WireError
from repro.obs.recorder import TraceRecorder
from repro.obs.registry import MetricsRegistry
from repro.service import wire
from repro.service.harness import ServiceCluster
from repro.service.loadgen import LoadGenerator
from repro.service.client import KVClient
from repro.service.transport import Connection, LoopbackTransport
from repro.types import WriteId
from tests.conftest import open_handshaken, stamped


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# basic request paths
# ----------------------------------------------------------------------
class TestBasicPaths:
    def test_put_then_get_same_session(self):
        async def main():
            async with ServiceCluster(3, 6, "opt-track", replication_factor=2,
                                      sanitize=True) as cluster:
                c = cluster.client(home=0)
                wid = await c.put("x0", "hello")
                value, got, by = await c.get("x0")
                await c.close()
                return wid, value, got, by

        wid, value, got, by = run(main())
        assert wid == WriteId(0, 1)
        assert value == "hello"
        assert got == wid

    def test_remote_get_of_unreplicated_variable(self):
        async def main():
            # x placed only on site 1; the client's home site 0 must do
            # the paper's RemoteFetch on its behalf
            placement = {"x": (1,), "y": (0, 2)}
            async with ServiceCluster(3, 1, "opt-track", placement=placement,
                                      sanitize=True) as cluster:
                cluster.variables = ["x", "y"]
                writer = cluster.client(home=1)
                await writer.put("x", 41)
                reader = cluster.client(home=0)
                value, wid, by = await reader.get("x")
                await writer.close()
                await reader.close()
                return value, wid, by

        value, wid, by = run(main())
        assert (value, wid) == (41, WriteId(1, 1))
        assert by == 1  # served by x's replica through site 0

    def test_read_of_unwritten_variable_returns_initial(self):
        async def main():
            async with ServiceCluster(2, 2, "full-track") as cluster:
                c = cluster.client(home=1)
                value, wid, _ = await c.get("x1")
                await c.close()
                return value, wid

        value, wid = run(main())
        assert value is None and wid is None

    def test_replication_converges_across_sites(self):
        async def main():
            async with ServiceCluster(3, 3, "opt-track-crp") as cluster:
                c0 = cluster.client(home=0)
                await c0.put("x0", "from-0")
                await cluster.quiesce()
                c2 = cluster.client(home=2)
                value, wid, by = await c2.get("x0")
                await c0.close()
                await c2.close()
                return value, wid, by

        value, wid, by = run(main())
        assert (value, wid, by) == ("from-0", WriteId(0, 1), 2)

    def test_ping(self):
        async def main():
            async with ServiceCluster(2, 2, "opt-track") as cluster:
                c = cluster.client()
                alive = [await c.ping(0), await c.ping(1)]
                await c.close()
                return alive

        assert run(main()) == [True, True]


# ----------------------------------------------------------------------
# failure handling
# ----------------------------------------------------------------------
class TestFailover:
    def test_dead_home_site_degrades_to_replica(self):
        async def main():
            async with ServiceCluster(3, 6, "opt-track", replication_factor=2,
                                      sanitize=True) as cluster:
                feeder = cluster.client(home=1)
                await feeder.put("x0", "durable")
                await cluster.quiesce()
                cluster.kill_site(1)
                # home site 1 is gone: the client must retry, back off,
                # and serve the read from a surviving replica of x0
                c = cluster.client(home=1, timeout=0.2)
                value, wid, by = await c.get("x0")
                await feeder.close()
                await c.close()
                return value, wid, by, cluster.placement["x0"], c.failovers

        value, wid, by, replicas, failovers = run(main())
        assert value == "durable"
        assert wid == WriteId(1, 1)
        assert by in replicas and by != 1
        assert failovers >= 1

    def test_all_replicas_dead_surfaces_unavailable(self):
        async def main():
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2) as cluster:
                cluster.kill_site(0)
                cluster.kill_site(1)
                c = cluster.client(home=0, timeout=0.1, max_rounds=2,
                                   backoff_base=0.001)
                with pytest.raises(ServiceUnavailableError, match="every candidate"):
                    await c.get("x0")
                await c.close()

        run(main())

    def test_kill_frame_stops_site(self):
        async def main():
            async with ServiceCluster(2, 2, "opt-track") as cluster:
                c = cluster.client()
                assert await c.kill(1)
                for _ in range(100):
                    if cluster.servers[1].stopped:
                        break
                    await asyncio.sleep(0.005)
                await c.close()
                return cluster.servers[1].stopped, cluster.live_sites

        stopped, live = run(main())
        assert stopped and live == [0]

    def test_writes_queued_while_peer_down_are_not_lost_to_survivors(self):
        async def main():
            async with ServiceCluster(3, 3, "opt-track", replication_factor=3,
                                      sanitize=True) as cluster:
                cluster.kill_site(2)
                c = cluster.client(home=0)
                await c.put("x0", "survives")
                # replication to the live peer completes even though the
                # link to the dead site keeps retrying in the background
                c1 = cluster.client(home=1)
                for _ in range(200):
                    value, wid, _ = await c1.get("x0")
                    if value == "survives":
                        break
                    await asyncio.sleep(0.005)
                await c.close()
                await c1.close()
                return value, wid

        value, wid = run(main())
        assert (value, wid) == ("survives", WriteId(0, 1))


# ----------------------------------------------------------------------
# peer-link protocol: acks, epochs, loss recovery
# ----------------------------------------------------------------------
class _LossyConnection(Connection):
    """Wraps a loopback connection and silently drops the first ``repl``
    frame — the transport "accepted" it, the peer never sees it — then
    kills the underlying pair: the TCP kernel-buffer failure mode where
    ``send`` succeeding says nothing about delivery."""

    def __init__(self, inner):
        self._inner = inner
        self._dropped = False

    async def send(self, frame):
        if self._dropped:
            raise ConnectionResetError("link died after the frame loss")
        if frame.get("t") == "repl":
            self._dropped = True
            await self._inner.close()
            return  # bytes accepted, never delivered
        await self._inner.send(frame)

    async def recv(self):
        return await self._inner.recv()

    async def close(self):
        await self._inner.close()

    @property
    def peer(self):
        return self._inner.peer


class _FrameDroppingTransport(LoopbackTransport):
    """The first connection to ``victim`` loses its first repl frame."""

    def __init__(self, victim):
        super().__init__()
        self._victim = victim
        self._armed = True

    async def connect(self, address):
        inner = await super().connect(address)
        if address == self._victim and self._armed:
            self._armed = False
            return _LossyConnection(inner)
        return inner


class TestLinkProtocol:
    def test_repl_frame_lost_after_transport_accept_is_resent(self):
        # regression: with pop-on-send, a frame lost between transport
        # accept and receiver processing was gone forever (the dedup
        # high-water mark silently jumped the gap on the next frame);
        # with ack-gated retirement it is resent after reconnect
        async def main():
            transport = _FrameDroppingTransport("site-1")
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      sanitize=True,
                                      transport=transport) as cluster:
                c0 = cluster.client(home=0)
                await c0.put("x0", "must-arrive")
                await cluster.quiesce(timeout=10.0)
                c1 = cluster.client(home=1)
                value, wid, by = await c1.get("x0")
                await c0.close()
                await c1.close()
                return value, wid, by, cluster.servers[1].applies

        value, wid, by, applies = run(main())
        assert (value, wid, by) == ("must-arrive", WriteId(0, 1), 1)
        assert applies == 1  # resent exactly once, applied exactly once

    def test_handshake_acks_dedup_and_epoch_reset(self):
        # drive the link protocol with raw frames: contiguity, cumulative
        # re-ack of duplicates, gap refusal, and the epoch handshake that
        # resets dedup state for a restarted sender incarnation.  The
        # updates go self-contained (a chained frame can be sent once
        # only); the acks come back chained: ``a`` is the advance over
        # the previous ack of the connection, the first one absolute
        async def main():
            async with ServiceCluster(2, 2, "opt-track",
                                      replication_factor=2) as cluster:
                receiver = cluster.servers[1]
                # a site-0 protocol twin mints real updates for site 1
                proto = cluster.servers[0].protocol

                def write(value):
                    return next(m for m in proto.write("x0", value).messages
                                if m.dest == 1)

                conn, ok = await open_handshaken(
                    cluster.transport, "site-1", src=0, epoch=11
                )
                assert ok["ack"] == 0 and ok["ap"] == 0
                link = wire.DeltaEncoder(None, 0, 1)  # this end of the link

                m1 = write("v1")
                await conn.send(wire.encode_update(m1, 1))
                ack = await conn.recv()
                assert (ack["t"], ack["a"], ack["ap"]) == ("repl.ackp", 1, 0)
                assert link.restore(ack)["a"] == 1
                assert receiver.applies == 1

                # duplicate: dropped at the link layer, re-acked so the
                # sender can retire it, protocol untouched
                await conn.send(wire.encode_update(m1, 1))
                ack = await conn.recv()
                assert (ack["t"], ack["a"]) == ("repl.ackp", 0)  # no advance
                assert link.restore(ack)["a"] == 1
                assert receiver.applies == 1

                # gap: ls=3 while seen=1 — refused without ack or advance
                m2 = write("v2")
                await conn.send(wire.encode_update(m2, 3))
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(conn.recv(), 0.05)
                assert receiver.applies == 1

                # the contiguous retry lands
                await conn.send(wire.encode_update(m2, 2))
                ack = await conn.recv()
                assert (ack["t"], ack["a"]) == ("repl.ackp", 1)
                assert link.restore(ack)["a"] == 2
                assert receiver.applies == 2
                await conn.close()

                # same incarnation reconnecting resumes at its high-water
                # mark; a NEW incarnation (site restart) resets it, so the
                # fresh link sequence starting at 1 is not dropped as a dup.
                # Either way the handshake made both chain ends anew: the
                # first frame is full and absolute in every chained field
                # (``ls``, ``it``, the ack's ``a``), the second advances
                applies = receiver.applies
                for epoch, resumes_at in ((11, 2), (99, 0)):
                    conn, ok = await open_handshaken(
                        cluster.transport, "site-1", src=0, epoch=epoch
                    )
                    assert ok["ack"] == resumes_at
                    link = wire.DeltaEncoder(wire.InternTable(ok["itab"]), 0, 1)
                    first = link.encode_update(write("a"), resumes_at + 1, 5000.0)
                    second = link.encode_update(write("b"), resumes_at + 2, 5007.0)
                    assert (first["t"], first["ls"], first["it"]) == (
                        "repl.t", resumes_at + 1, 5000
                    )
                    assert (second["ls"], second["it"]) == (1, 7)
                    assert not {"src", "dst"} & (set(first) | set(second))
                    await conn.send(first)
                    ack = await conn.recv()
                    assert ack["a"] == resumes_at + 1      # absolute
                    link.restore(ack)
                    await conn.send(second)
                    ack = await conn.recv()
                    assert ack["a"] == 1                   # chained
                    assert link.restore(ack)["a"] == resumes_at + 2
                    applies += 2
                    assert receiver.applies == applies
                    assert receiver._seen_ls[0] == resumes_at + 2
                    await conn.close()

        run(main())

    def test_frames_in_flight_at_kill_are_refused_not_half_served(self):
        # regression: a put that arrived just after the chaos kill used
        # to be acked with put.ok while its updates were enqueued on
        # closed links — an acknowledged write that never replicated
        async def main():
            async with ServiceCluster(3, 3, "opt-track",
                                      replication_factor=3) as cluster:
                conn, _ = await open_handshaken(cluster.transport, "site-1")
                await conn.send(wire.make_frame("kill"))
                # queued behind the kill on the same connection
                await conn.send(wire.make_frame("put", var="x0", value="doomed"))
                kill_ok = await conn.recv()
                refusal = await conn.recv()
                await conn.close()
                # the client-facing path degrades to a surviving replica
                c = cluster.client(home=1, timeout=0.2)
                wid = await c.put("x0", "rerouted")
                served = dict(c.served_by)
                await c.close()
                return kill_ok, refusal, wid, served

        kill_ok, refusal, wid, served = run(main())
        assert kill_ok["t"] == "kill.ok"
        assert refusal["t"] == "err" and refusal["code"] == "shutting-down"
        assert wid is not None
        assert served and 1 not in served

    @staticmethod
    async def _deliver_past(first_link_ok, first_ack):
        """Site 1 is killed and a hand-scripted peer listens at its
        address.  Its first connection answers the link handshake with
        ``first_link_ok`` and (if that let the link through) the first
        repl frame with ``first_ack``; every later connection behaves.
        Site 0 then writes once.  Returns what the peer saw per
        connection, whether site 0's link task is still alive, its
        backlog, and site 0's counters."""
        metrics = MetricsRegistry()
        seen = []  # per connection: the frame kinds it received

        async def peer(conn):
            mine = []
            seen.append(mine)
            good = len(seen) > 1
            hello = await conn.recv()
            mine.append(hello["t"])
            ok = wire.make_frame("link.ok", cv=wire.WIRE_VERSION, ack=0, ap=0,
                                 ow=0, itab=[])
            await conn.send(ok if good else {**ok, **first_link_ok})
            while (frame := await conn.recv()) is not None:
                mine.append((frame["t"], frame["ls"]))
                ack = wire.make_frame("repl.ackp", a=frame["ls"], ap=0)
                await conn.send(ack if good else first_ack)

        async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                  metrics=metrics) as cluster:
            cluster.kill_site(1)
            await cluster.servers[1].stop()  # its listener is gone for good
            await cluster.transport.listen("site-1", peer)
            c0 = cluster.client(home=0)
            await c0.put("x0", "must-arrive")
            link = cluster.servers[0]._links[1]
            for _ in range(400):
                if link.backlog == 0:
                    break
                await asyncio.sleep(0.005)
            await c0.close()
            return (seen, not link._task.done(), link.backlog,
                    metrics.snapshot()["counters"])

    def test_malformed_ack_drops_the_connection_not_the_link(self):
        # regression: an ack without its ``a`` field raised KeyError in
        # the link's reader, which escaped _run's teardown — the link
        # task ended for good, its backlog grew without bound and
        # SiteServer.stop() re-raised the error.  A malformed reply is a
        # WireError: drop the connection, resend after the next handshake
        seen, alive, backlog, counters = run(self._deliver_past(
            {}, {"v": wire.JSON_WIRE_VERSION, "t": "repl.ackp"}
        ))
        assert alive and backlog == 0
        # the update went out on the first connection (malformed ack)
        # and was delivered again, and acked, on the next one
        assert seen[0] == ["link.hello", ("repl.t", 1)]
        assert seen[1] == ["link.hello", ("repl.t", 1)]
        assert counters["link_drops_total{peer=1,site=0}"] >= 1

    def test_malformed_link_ok_fails_the_handshake_not_the_link(self):
        # same hole one step earlier: int("x") on link.ok's ack raised
        # ValueError, which _run's handshake arm does not catch either
        seen, alive, backlog, counters = run(self._deliver_past(
            {"ack": "x"}, None
        ))
        assert alive and backlog == 0
        assert seen[0] == ["link.hello"]  # no frame after the bad link.ok
        assert seen[1] == ["link.hello", ("repl.t", 1)]
        assert counters["link_connect_failures_total{peer=1,site=0}"] >= 1

    def test_link_ok_without_ow_fails_the_handshake(self):
        # ``ow`` (the per-origin watermark the catch-up runs on) is
        # required: a link.ok without it is refused like a mistyped one
        seen, alive, backlog, counters = run(self._deliver_past(
            {"ow": None}, None
        ))
        assert alive and backlog == 0
        assert seen[0] == ["link.hello"]
        assert seen[1] == ["link.hello", ("repl.t", 1)]
        assert counters["link_connect_failures_total{peer=1,site=0}"] >= 1


# ----------------------------------------------------------------------
# the support window: one wire version, refused otherwise
# ----------------------------------------------------------------------
class TestSupportWindow:
    """Every connection opens with a hello carrying ``cv ==
    wire.WIRE_VERSION``; anything else gets exactly one
    ``unsupported-version`` error naming both versions, then EOF, with
    no protocol state touched — on the accepting side and, mirrored, on
    the dialing side."""

    @staticmethod
    async def _refusal(frame_for):
        """Send one frame on a fresh connection to site 1; returns every
        reply up to EOF and the receiver's state afterwards."""
        async with ServiceCluster(2, 2, "opt-track",
                                  replication_factor=2) as cluster:
            receiver = cluster.servers[1]
            conn = await cluster.transport.connect("site-1")
            await conn.send(frame_for(cluster))
            replies = []
            while (reply := await asyncio.wait_for(conn.recv(), 1.0)) is not None:
                replies.append(reply)
            await conn.close()
            state = (receiver.applies, dict(receiver._seen_ls),
                     dict(receiver._peer_epoch), dict(receiver._origin_applied),
                     len(receiver._delta_in))
            return replies, state

    @staticmethod
    def _assert_refused(replies, state, offered):
        (err,) = replies  # exactly one frame before the EOF
        assert (err["t"], err["code"]) == ("err", "unsupported-version")
        assert err["code"] not in wire.RETRIABLE
        assert f"version {wire.WIRE_VERSION} only" in err["msg"]
        assert f"unsupported wire version {offered!r}" in err["msg"]
        assert state == (0, {}, {}, {}, 0)

    @pytest.mark.parametrize("cv", [None, 6, 8])
    @pytest.mark.parametrize("kind", ["hello", "link.hello"])
    def test_hello_outside_the_window_is_refused(self, kind, cv):
        fields = {"src": 0, "epoch": 7} if kind == "link.hello" else {}
        if cv is not None:
            fields["cv"] = cv
        replies, state = run(
            self._refusal(lambda cluster: wire.make_frame(kind, **fields))
        )
        self._assert_refused(replies, state, cv)
        assert kind in replies[0]["msg"]

    @pytest.mark.parametrize("kind", ["put", "sys.stats", "repl.t"])
    def test_frame_before_any_hello_is_refused(self, kind):
        def frame_for(cluster):
            if kind == "put":
                return wire.make_frame("put", var="x0", value="v")
            if kind == "sys.stats":
                return wire.make_frame("sys.stats")
            proto = cluster.servers[0].protocol
            m = next(m for m in proto.write("x0", "v").messages if m.dest == 1)
            return stamped(wire.encode_update(m, 1), 0.0)

        replies, state = run(self._refusal(frame_for))
        self._assert_refused(replies, state, None)
        assert f"a {kind} frame before any hello" in replies[0]["msg"]

    def test_link_backs_off_from_a_peer_on_another_version(self):
        # the dialing side: a listener that answers ``link.ok cv=6`` (the
        # previous wire version) is never sent a frame — the link counts
        # a failed handshake, backs off and dials again, exactly as for
        # any other handshake failure; the refusal names both versions
        async def main():
            metrics = MetricsRegistry()
            seen = []

            async def old_peer(conn):
                while (frame := await conn.recv()) is not None:
                    seen.append(frame["t"])
                    await conn.send(wire.make_frame("link.ok", cv=6, ack=0))

            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      metrics=metrics) as cluster:
                cluster.kill_site(1)
                await cluster.servers[1].stop()
                await cluster.transport.listen("site-1", old_peer)
                c0 = cluster.client(home=0)
                await c0.put("x0", "held")
                link = cluster.servers[0]._links[1]
                for _ in range(400):
                    if len(seen) >= 3:
                        break
                    await asyncio.sleep(0.005)
                await c0.close()
                with pytest.raises(WireError) as refusal:
                    await open_handshaken(cluster.transport, "site-1", src=0, epoch=1)
                return (list(seen), not link._task.done(), link.backlog,
                        metrics.snapshot()["counters"], str(refusal.value))

        seen, alive, backlog, counters, refusal = run(main())
        assert "unsupported wire version 6 " in refusal
        assert f"speaks version {wire.WIRE_VERSION} only" in refusal
        assert len(seen) >= 3 and set(seen) == {"link.hello"}
        assert alive and backlog == 1  # held for a peer that can take it
        assert counters["link_connect_failures_total{peer=1,site=0}"] >= 3

    def test_client_refuses_a_server_that_rejects_hello(self):
        # the input of the old "v2 server" downgrade test, with the
        # opposite outcome: a server that answers ``err bad-frame`` to
        # hello is not spoken to in JSON — the request fails, loudly
        async def main():
            transport = LoopbackTransport()
            seen = []

            async def v2_server(conn):
                while (frame := await conn.recv()) is not None:
                    seen.append(frame["t"])
                    await conn.send(
                        wire.err_frame("bad-frame", f"unknown frame {frame['t']!r}")
                    )

            await transport.listen("site-0", v2_server)
            client = KVClient({0: "site-0"}, {"x0": (0,)}, transport, home=0,
                              max_rounds=2, backoff_base=0.001)
            try:
                with pytest.raises(ServiceUnavailableError) as refused:
                    await client.get("x0")
            finally:
                await client.close()
                await transport.close()
            return str(refused.value), seen

        message, seen = run(main())
        assert "unsupported wire version None" in message
        assert f"version {wire.WIRE_VERSION} only" in message
        assert "bad-frame" in message  # the peer's own words are quoted
        assert seen == ["hello", "hello"]  # one per attempt, never a get


# ----------------------------------------------------------------------
# coalesced batches and cumulative acks
# ----------------------------------------------------------------------
class TestBatchedAcks:
    @staticmethod
    async def _link(cluster):
        """Open a raw link connection to site 1 the way a real PeerLink
        does."""
        conn, _ = await open_handshaken(
            cluster.transport, "site-1", src=0, epoch=5
        )
        return conn

    def test_contiguous_burst_acked_once_cumulatively(self):
        # a burst delivered in one coalesced flush is applied as one
        # batch and answered with a SINGLE cumulative ack — not one ack
        # per frame
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      metrics=metrics) as cluster:
                receiver = cluster.servers[1]
                proto = cluster.servers[0].protocol
                conn = await self._link(cluster)
                frames = []
                for i in range(3):
                    m = next(m for m in proto.write("x0", f"v{i}").messages
                             if m.dest == 1)
                    frames.append(wire.encode_update(m, i + 1))
                await conn.send_many(frames)
                ack = await conn.recv()
                assert (ack["t"], ack["a"], ack["ap"]) == ("repl.ackp", 3, 0)
                # no per-frame acks trail the cumulative one
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(conn.recv(), 0.05)
                await conn.close()
                return receiver.applies, metrics.snapshot()["counters"]

        applies, counters = run(main())
        assert applies == 3
        assert counters.get("service_ack_batches_total{site=1}") == 1

    def test_gap_in_batch_acks_contiguous_prefix_only(self):
        # a batch with a hole: the contiguous prefix is applied and
        # acked, the frame past the gap is refused without advancing
        # the dedup high-water mark — the retransmit then lands whole
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      metrics=metrics) as cluster:
                receiver = cluster.servers[1]
                proto = cluster.servers[0].protocol
                conn = await self._link(cluster)
                msgs = [next(m for m in proto.write("x0", f"v{i}").messages
                             if m.dest == 1) for i in range(4)]
                # ls=3 missing: the batch is [1, 2, 4]
                await conn.send_many([
                    wire.encode_update(msgs[0], 1),
                    wire.encode_update(msgs[1], 2),
                    wire.encode_update(msgs[3], 4),
                ])
                link = wire.DeltaEncoder(None, 0, 1)  # restores chained acks
                ack = link.restore(await conn.recv())
                assert (ack["t"], ack["a"]) == ("repl.ackp", 2)
                assert receiver.applies == 2
                # the retransmit closing the gap is again acked once
                await conn.send_many([
                    wire.encode_update(msgs[2], 3),
                    wire.encode_update(msgs[3], 4),
                ])
                ack = link.restore(await conn.recv())
                assert (ack["t"], ack["a"]) == ("repl.ackp", 4)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(conn.recv(), 0.05)
                await conn.close()
                return receiver.applies, metrics.snapshot()["counters"]

        applies, counters = run(main())
        assert applies == 4
        assert counters.get("service_repl_gaps_total{site=1}") == 1
        assert counters.get("service_ack_batches_total{site=1}") == 2

    def test_cumulative_ack_retires_whole_sender_backlog(self):
        # sender side: a burst enqueued on the real PeerLink without
        # yielding flushes as ONE send_many batch; the receiver's single
        # cumulative ack must retire every frame of the backlog at once
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      metrics=metrics) as cluster:
                sender = cluster.servers[0]
                proto = sender.protocol
                # prime the link: first contact runs the handshake
                m = next(m for m in proto.write("x0", "v0").messages
                         if m.dest == 1)
                sender._link(1).enqueue_update(m)
                await cluster.quiesce()
                link = sender._links[1]
                assert link.backlog == 0
                for i in range(1, 6):
                    m = next(m for m in proto.write("x0", f"v{i}").messages
                             if m.dest == 1)
                    link.enqueue_update(m)
                # nothing flushes before the writer task gets a turn
                assert link.backlog == 5
                await cluster.quiesce()
                assert link.backlog == 0
                return cluster.servers[1].applies, metrics.snapshot()["counters"]

        applies, counters = run(main())
        assert applies == 6
        # the priming frame and the five-frame burst: two ack batches
        assert counters.get("service_ack_batches_total{site=1}") == 2

    def test_quiesce_sound_under_coalesced_flushes_and_kill(self):
        # multi-session load (overlap makes real batches), one site
        # killed mid-run: survivors must still drain every live link to
        # zero backlog, surface zero errors, and pass the sanitizer
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(3, 6, "opt-track", replication_factor=3,
                                      sanitize=True, metrics=metrics) as cluster:
                gen = LoadGenerator(cluster, workload="a", ops_per_site=60,
                                    sessions=4, seed=11, metrics=metrics)
                task = asyncio.ensure_future(gen.run())
                while gen.completed < gen.total_ops // 3 and not task.done():
                    await asyncio.sleep(0.001)
                cluster.kill_site(2)
                report = await task
                await cluster.quiesce()
                live = set(cluster.live_sites)
                backlogs = [
                    link.backlog
                    for server in cluster.servers
                    if server.site in live
                    for dest, link in server._links.items()
                    if dest in live
                ]
                return report, backlogs, cluster.sanitizer.checks_run

        report, backlogs, checks = run(main())
        assert report.errors == 0
        assert backlogs and all(b == 0 for b in backlogs)
        assert checks > 0


# ----------------------------------------------------------------------
# write-through peer links: inline flush vs the writer task
# ----------------------------------------------------------------------
class _WrappedConnection(Connection):
    """Delegating base for the link-path wrappers below: everything goes
    to the inner loopback endpoint, ``writable``/``write_many`` included.
    The owning transport's ``log`` records ``(op, [frame kinds])``."""

    def __init__(self, inner, transport):
        self._inner = inner
        self._transport = transport
        self._log = transport.log

    @property
    def codec(self):
        return self._inner.codec

    @property
    def wire_version(self):
        return self._inner.wire_version

    @property
    def agreed_version(self):
        return self._inner.agreed_version

    def negotiate(self, codec, agreed=None):
        self._inner.negotiate(codec, agreed)

    async def send(self, frame):
        self._log.append(("send", [frame["t"]]))
        await self._inner.send(frame)

    async def send_many(self, frames):
        self._log.append(("send_many", [f["t"] for f in frames]))
        await self._inner.send_many(frames)

    def writable(self):
        return self._inner.writable()

    def write_many(self, frames):
        self._log.append(("write_many", [f["t"] for f in frames]))
        self._inner.write_many(frames)

    async def recv(self):
        return await self._inner.recv()

    async def recv_many(self):
        return await self._inner.recv_many()

    async def close(self):
        await self._inner.close()

    @property
    def peer(self):
        return self._inner.peer


class _NeverWritable(_WrappedConnection):
    """What a wrapper written before write-through looks like: only the
    awaitable pair, ``writable()`` left at the base-class default."""

    writable = Connection.writable
    write_many = Connection.write_many


class _StallingConnection(_WrappedConnection):
    """Backpressure on every third flush: the connection stops being
    writable until the writer task's ``send_many`` has drained it, and
    that ``send_many`` suspends mid-batch — first half, a few loop
    turns, second half."""

    def __init__(self, inner, transport):
        super().__init__(inner, transport)
        self._asked = 0
        self._full = False

    def writable(self):
        self._asked += 1
        if self._asked % 3 == 0:
            self._full = True
        return not self._full

    async def send_many(self, frames):
        self._log.append(("send_many", [f["t"] for f in frames]))
        half = (len(frames) + 1) // 2
        await self._inner.send_many(frames[:half])
        for _ in range(3):
            await asyncio.sleep(0)
        await self._inner.send_many(frames[half:])
        self._full = False


class _SwallowingConnection(_WrappedConnection):
    """Once its transport is armed, the next inline write is accepted
    and never delivered, and the pair is cut — the ack for it can never
    come."""

    def write_many(self, frames):
        if self._transport.armed:
            self._transport.armed = False
            self._log.append(("swallowed", [f["t"] for f in frames]))
            self._inner._peer._sever()
            self._inner._sever()
            return
        super().write_many(frames)


class _WrappingTransport(LoopbackTransport):
    """Loopback whose outbound endpoints to ``victim`` (every address
    when None) and, with ``inbound``, server-side endpoints too, are
    wrapped in ``wrapper``."""

    def __init__(self, wrapper, victim=None, inbound=False, metrics=None):
        super().__init__(metrics=metrics)
        self.wrapper = wrapper
        self.victim = victim
        self.inbound = inbound
        self.log = []
        self.armed = False  # read by _SwallowingConnection

    async def listen(self, address, handler):
        if not self.inbound:
            return await super().listen(address, handler)

        async def wrapped(conn):
            await handler(_WrappedConnection(conn, self))

        return await super().listen(address, wrapped)

    async def connect(self, address):
        inner = await super().connect(address)
        if self.victim is None or address == self.victim:
            return self.wrapper(inner, self)
        return inner


def _counter(counters, name):
    """Sum of a counter over all its label sets."""
    return sum(v for k, v in counters.items() if k.split("{")[0] == name)


class TestBoundCounters:
    def test_bound_counters_are_the_registrys_own_series(self):
        """``SiteServer.metric`` / ``KVClient._metric`` resolve a series
        once and bump the bound counter afterwards — a lookup shortcut,
        not a second store: the registry (and so snapshots, sys.stats
        and the exposition) reads what per-call lookups produced."""
        async def main():
            metrics, plain = MetricsRegistry(), MetricsRegistry()
            async with ServiceCluster(2, 2, "opt-track", metrics=metrics) as cluster:
                server = cluster.servers[1]
                client = cluster.client(home=0)
                base = metrics.snapshot()["counters"]
                for _ in range(3):
                    server.metric("service_requests_total", op="put")
                    plain.counter("service_requests_total", site=1, op="put").inc()
                    client._metric("client_failovers_total", op="get")
                    plain.counter("client_failovers_total", op="get").inc()
                server.metric("service_applies_total", 7)
                plain.counter("service_applies_total", site=1).inc(7)
                # label order at the call site does not split a series
                server.metric("x_total", a=1, b=2)
                server.metric("x_total", b=2, a=1)
                plain.counter("x_total", site=1, a=1, b=2).inc(2)
                after = metrics.snapshot()["counters"]
                await client.close()
            return base, after, plain.snapshot()["counters"]

        base, after, expect = run(main())
        grew = {k: v - base.get(k, 0) for k, v in after.items() if v != base.get(k, 0)}
        assert grew == expect


class TestOnePassInterop:
    def test_wrapped_and_plain_connections_share_a_cluster(self):
        """Every connection *into* site 1 is a wrapper that only speaks
        frame dicts (its ``send`` reads ``frame["t"]`` — pre-encoded
        bytes would raise), every other connection is the transport's
        own and goes message <-> bytes in one pass.  Both ends of the
        wrapped links mix the two paths — dict-encoded updates decoded
        in one pass at site 1, one-pass acks decoded to dicts behind the
        wrapper — and the bytes are the same either way."""
        async def main():
            metrics = MetricsRegistry()
            transport = _WrappingTransport(_WrappedConnection, victim="site-1",
                                           metrics=metrics)
            async with ServiceCluster(3, 6, "opt-track", replication_factor=2,
                                      sanitize=True, metrics=metrics,
                                      transport=transport) as cluster:
                gen = LoadGenerator(cluster, workload="a", ops_per_site=40,
                                    sessions=2, seed=5, metrics=metrics)
                report = await gen.run()
                await cluster.quiesce()
                links = cluster.servers[0]._links
                paths = {d: link._conn.one_pass for d, link in links.items()}
                backlogs = [link.backlog for server in cluster.servers
                            for link in server._links.values()]
                return (report, paths, backlogs, cluster.sanitizer.checks_run,
                        metrics.snapshot()["counters"], transport.log)

        report, paths, backlogs, checks, counters, log = run(main())
        assert report.errors == 0 and report.ops > 0 and checks > 0
        assert backlogs and all(b == 0 for b in backlogs)
        # site 0's link to site 1 carried frame dicts, its link to
        # site 2 pre-encoded frames on the negotiated v4 codec
        assert paths[1] is None and paths[2] is wire.BINARY_CODEC_V4
        carried = {kind for _, kinds in log for kind in kinds}
        assert {"put", "get", "repl.t", "repl.delta.t", "fetch"} <= carried
        assert _counter(counters, "service_repl_gaps_total") == 0
        # remote reads crossed the seam too (wrapped fetch, one-pass reply)
        assert _counter(counters, "service_fetch_failures_total") == 0


class TestWriteThrough:
    def test_put_is_on_the_wire_before_the_writer_task_runs(self):
        async def main():
            async with ServiceCluster(2, 2, "opt-track",
                                      replication_factor=2) as cluster:
                c0 = cluster.client(home=0)
                await c0.put("x0", "prime")  # first contact: handshake
                await cluster.quiesce()
                link = cluster.servers[0]._links[1]
                receiver = cluster.servers[1]
                before = dict(link.flushes), receiver.applies
                await c0.put("x0", "v1")
                # put() has only just returned: the update was handed to
                # the transport in the handler's own loop step ...
                sent = link._sent == link._link_seq
                flushes = dict(link.flushes)
                # ... so the destination's handler is already runnable
                await asyncio.sleep(0)
                applies = receiver.applies
                await c0.close()
                return before, sent, flushes, applies

        (flushes0, applies0), sent, flushes, applies = run(main())
        assert sent
        assert flushes["task"] == flushes0["task"]
        assert flushes["inline"] == flushes0["inline"] + 1
        assert applies == applies0 + 1

    @staticmethod
    async def _burst(cluster, sessions=4, puts=15):
        """Concurrent sessions at site 0, so puts arrive while earlier
        flushes are still in the transport."""
        clients = [cluster.client(home=0) for _ in range(sessions)]

        async def session(k, client):
            for i in range(puts):
                await client.put(f"x{i % 3}", f"s{k}-{i}")

        await asyncio.gather(*(session(k, c) for k, c in enumerate(clients)))
        await cluster.quiesce()
        for client in clients:
            await client.close()
        return sessions * puts

    def test_unwritable_connection_goes_through_the_writer_task(self):
        async def main():
            metrics = MetricsRegistry()
            transport = _WrappingTransport(_NeverWritable, metrics=metrics)
            async with ServiceCluster(3, 3, "opt-track", replication_factor=3,
                                      sanitize=True, metrics=metrics,
                                      transport=transport) as cluster:
                n = await self._burst(cluster)
                applies = [s.applies for s in cluster.servers]
                return n, applies, metrics.snapshot()["counters"], transport.log

        n, applies, counters, log = run(main())
        assert applies == [0, n, n]  # every delta chain decoded
        assert _counter(counters, "service_repl_gaps_total") == 0
        assert _counter(counters, "service_repl_dups_total") == 0
        assert counters["link_flushes_total{path=task,peer=1,site=0}"] > 0
        assert counters["link_flushes_total{path=inline,peer=1,site=0}"] == 0
        assert not any(op == "write_many" for op, _ in log)

    def test_inline_writes_hold_off_while_a_task_flush_is_suspended(self):
        # without the _busy guard an inline flush during the suspended
        # send_many re-collects the batch the task still holds: frames
        # go out twice and the delta chain advances twice
        async def main():
            metrics = MetricsRegistry()
            transport = _WrappingTransport(_StallingConnection, victim="site-1",
                                           metrics=metrics)
            async with ServiceCluster(3, 3, "opt-track", replication_factor=3,
                                      sanitize=True, metrics=metrics,
                                      transport=transport) as cluster:
                n = await self._burst(cluster)
                applies = [s.applies for s in cluster.servers]
                flushes = dict(cluster.servers[0]._links[1].flushes)
                return n, applies, flushes, metrics.snapshot()["counters"]

        n, applies, flushes, counters = run(main())
        assert applies == [0, n, n]
        assert _counter(counters, "service_repl_gaps_total") == 0
        assert _counter(counters, "service_repl_dups_total") == 0
        assert flushes["inline"] > 0 and flushes["task"] > 0

    def test_write_lost_before_its_ack_is_resent_on_a_fresh_chain(self):
        async def main():
            metrics = MetricsRegistry()
            transport = _WrappingTransport(_SwallowingConnection, victim="site-1",
                                           metrics=metrics)
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      sanitize=True, metrics=metrics,
                                      transport=transport) as cluster:
                c0 = cluster.client(home=0)
                for i in range(3):  # the chain is mid-stream
                    await c0.put("x0", f"v{i}")
                await cluster.quiesce()
                link = cluster.servers[0]._links[1]
                chain = link._delta_out
                transport.armed = True
                await c0.put("x0", "lost-once")
                await c0.put("x0", "after")
                await cluster.quiesce(timeout=10.0)
                c1 = cluster.client(home=1)
                value, _, _ = await c1.get("x0")
                await c0.close()
                await c1.close()
                return (value, cluster.servers[1].applies, chain is link._delta_out,
                        metrics.snapshot()["counters"], transport.log)

        value, applies, same_chain, counters, log = run(main())
        assert (value, applies) == ("after", 5)  # resent once, applied once
        assert not same_chain
        assert _counter(counters, "service_repl_gaps_total") == 0
        cut = next(i for i, (op, _) in enumerate(log) if op == "swallowed")
        resent = next(kinds for op, kinds in log[cut + 1:]
                      if any(k in wire.REPL_FRAME_KINDS for k in kinds))
        # the new connection's chain starts over with a full frame
        assert not resent[0].startswith("repl.delta")

    def test_put_ok_is_sent_before_the_flush(self):
        async def main():
            transport = _WrappingTransport(_WrappedConnection, inbound=True)
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      transport=transport) as cluster:
                c0 = cluster.client(home=0)
                await c0.put("x0", "prime")
                await cluster.quiesce()
                del transport.log[:]
                await c0.put("x0", "v1")
                await c0.close()
                return list(transport.log)

        log = run(main())
        reply = log.index(("send", ["put.ok"]))
        flush = next(i for i, (op, kinds) in enumerate(log)
                     if op == "write_many"
                     and any(k in wire.REPL_FRAME_KINDS for k in kinds))
        assert reply < flush


# ----------------------------------------------------------------------
# causal safety through the service stack
# ----------------------------------------------------------------------
class TestCausalSafety:
    def test_sanitizer_shadow_checks_service_applies(self):
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(3, 6, "opt-track", replication_factor=2,
                                      sanitize=True, metrics=metrics) as cluster:
                gen = LoadGenerator(cluster, workload="a", ops_per_site=40,
                                    seed=7, metrics=metrics)
                report = await gen.run()
                await cluster.quiesce()
                return report, cluster.sanitizer.checks_run

        report, checks = run(main())  # SanitizerViolation would propagate
        assert report.errors == 0
        assert checks > 0

    def test_strict_mode_over_the_wire(self):
        async def main():
            async with ServiceCluster(3, 6, "full-track", replication_factor=2,
                                      sanitize=True) as cluster:
                c = cluster.client(home=0)
                for i in range(5):
                    await c.put("x0", f"v{i}")
                    value, _, _ = await c.get("x0")
                    assert value == f"v{i}"
                await cluster.quiesce()
                await c.close()

        run(main())

    def test_recorder_captures_service_spans(self):
        async def main():
            rec = TraceRecorder(meta={"source": "service-test"})
            async with ServiceCluster(2, 2, "opt-track", recorder=rec) as cluster:
                c = cluster.client(home=0)
                await c.put("x0", 1)
                await cluster.quiesce()
                await c.get("x0")
                await c.close()
            return rec

        rec = run(main())
        kinds = [r["k"] for r in rec.records]
        # the same span vocabulary the simulator emits, so repro-sim
        # trace renders service runs unchanged
        for expected in ("issue", "send", "deliver", "apply", "read"):
            assert expected in kinds, kinds
        issue = next(r for r in rec.records if r["k"] == "issue")
        assert issue["w"] == [0, 1]


# ----------------------------------------------------------------------
# load generation / bench plumbing
# ----------------------------------------------------------------------
class TestLoadGen:
    def test_report_has_latency_percentiles_from_registry(self):
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(2, 4, "opt-track", metrics=metrics) as cluster:
                gen = LoadGenerator(cluster, workload="b", ops_per_site=30,
                                    metrics=metrics)
                report = await gen.run()
                await cluster.quiesce()
                return report, metrics

        report, metrics = run(main())
        assert report.errors == 0
        assert report.ops == 60
        assert report.ops_per_s > 0
        get = report.latency_ms["get"]
        assert get["count"] > 0
        assert get["p50"] is not None and get["p99"] is not None
        assert get["p50"] <= get["p99"]
        # the percentiles come from the shared registry histograms
        hist = metrics.histogram("service_latency_ms", op="get")
        assert hist.count == get["count"]
        text = report.format()
        assert "p50" in text and "p99" in text and "ops/s" in text

    def test_loadgen_progress_counter(self):
        async def main():
            async with ServiceCluster(2, 2, "opt-track") as cluster:
                gen = LoadGenerator(cluster, workload="c", ops_per_site=10)
                assert gen.total_ops == 20
                report = await gen.run()
                return gen.completed, report.ops

        completed, ops = run(main())
        assert completed == ops == 20


# ----------------------------------------------------------------------
# transport semantics the service relies on
# ----------------------------------------------------------------------
class TestLoopbackTransport:
    def test_kill_severs_established_connections(self):
        async def main():
            t = LoopbackTransport()
            got = []

            async def handler(conn):
                while (frame := await conn.recv()) is not None:
                    got.append(frame)

            await t.listen("a", handler)
            conn = await t.connect("a")
            from repro.service import wire
            await conn.send(wire.make_frame("ping"))
            t.kill("a")
            with pytest.raises(ConnectionError):
                await conn.send(wire.make_frame("ping"))
            with pytest.raises(ConnectionError):
                await t.connect("a")
            await t.close()

        run(main())

    def test_frames_round_trip_through_codec(self):
        async def main():
            t = LoopbackTransport()
            seen = []

            async def handler(conn):
                seen.append(await conn.recv())

            await t.listen("b", handler)
            conn = await t.connect("b")
            from repro.service import wire
            # tuple keys/values must arrive as their JSON shapes: the
            # loopback is not allowed to pass objects by reference
            await conn.send(wire.make_frame("x", pair=(1, 2)))
            await asyncio.sleep(0.01)
            await t.close()
            return seen

        (frame,) = run(main())
        assert frame["pair"] == [1, 2]


# ----------------------------------------------------------------------
# sys.stats raw-frame conformance
# ----------------------------------------------------------------------
class TestStatsFrames:
    """Wire-level contract of the observability frames: any handshaken
    connection may ask ``sys.stats`` (one sent before a hello is refused
    like any other frame, see ``TestSupportWindow``), a mid-batch stats
    snapshot observes the repl frames flushed ahead of it, and a stopped
    site refuses with the retriable ``shutting-down`` code."""

    def test_hello_echoes_sx_and_answers_stats(self):
        # the name predates the support window: there is no ``sx`` field
        # any more, a current-version hello is all sys.stats needs
        async def main():
            async with ServiceCluster(2, 2, "opt-track", replication_factor=2,
                                      metrics=MetricsRegistry()) as cluster:
                conn, ok = await open_handshaken(cluster.transport, "site-0")
                await conn.send(wire.make_frame("sys.stats"))
                reply = await conn.recv()
                await conn.close()
                return ok, reply

        ok, reply = run(main())
        assert "sx" not in ok and "gx" not in ok
        assert reply["t"] == "sys.stats.ok" and reply["site"] == 0
        stats = reply["stats"]
        assert stats["site"] == 0 and stats["applies"] == 0
        assert stats["wire"] == {"version": wire.WIRE_VERSION}
        assert "links" in stats and "flight" in stats and "metrics" in stats

    def test_mid_batch_stats_sees_prior_updates_applied(self):
        # sys.stats coalesced into one flush behind repl frames: the
        # batch dispatcher applies (and acks) the repl prefix before
        # answering the stats probe, so the snapshot can never miss
        # updates that arrived ahead of it on the same connection
        async def main():
            async with ServiceCluster(2, 2, "opt-track",
                                      replication_factor=2) as cluster:
                receiver = cluster.servers[1]
                proto = cluster.servers[0].protocol
                conn, _ = await open_handshaken(
                    cluster.transport, "site-1", src=0, epoch=5
                )
                frames = []
                for i in range(2):
                    m = next(m for m in proto.write("x0", f"v{i}").messages
                             if m.dest == 1)
                    frames.append(wire.encode_update(m, i + 1))
                frames.append(wire.make_frame("sys.stats"))
                await conn.send_many(frames)
                ack = await conn.recv()
                reply = await conn.recv()
                await conn.close()
                return ack, reply, receiver.applies

        ack, reply, applies = run(main())
        # the repl prefix was applied and acked cumulatively first
        assert (ack["t"], ack["a"]) == ("repl.ackp", 2)
        assert reply["t"] == "sys.stats.ok"
        assert applies == 2
        stats = reply["stats"]
        assert stats["applies"] == 2
        assert stats["inbound"]["0"]["seen"] == 2

    def test_stats_after_stop_is_retriable_shutting_down(self):
        # stop() landing between recv and dispatch: the probe is refused
        # with the retriable code, so a poller (repro-kv top) fails over
        # instead of surfacing an error
        async def main():
            async with ServiceCluster(2, 2, "opt-track") as cluster:
                server = cluster.servers[0]
                conn, _ = await open_handshaken(cluster.transport, "site-0")
                server._stopped.set()
                await conn.send(wire.make_frame("sys.stats"))
                reply = await conn.recv()
                await conn.close()
                return reply

        reply = run(main())
        assert (reply["t"], reply["code"]) == ("err", "shutting-down")
        assert reply["code"] in wire.RETRIABLE

    def test_client_stats_reports_lag_and_visibility(self):
        # the client-facing wrapper end to end: write cross-site, wait
        # for replication to settle, and read the snapshot back — lag
        # zero everywhere, the origin's visibility histogram populated
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(3, 6, "opt-track", replication_factor=3,
                                      sanitize=True, metrics=metrics) as cluster:
                writer = cluster.client(home=0)
                for i in range(5):
                    await writer.put("x0", i)
                await cluster.quiesce()
                observer = cluster.client(home=1)
                stats = await observer.stats()
                home = await observer.stats(site=0)
                await writer.close()
                await observer.close()
                return stats, home

        stats, home = run(main())
        assert stats["site"] == 1 and home["site"] == 0
        for peer_stats in stats["links"].values():
            assert peer_stats["unacked"] == 0 and peer_stats["backlog"] == 0
        # site 1 applied updates from origin 0 and timed their visibility
        hists = stats["metrics"]["histograms"]
        key = "visibility_latency_ms{origin=0,site=1}"
        assert key in hists and hists[key]["count"] == 5
        assert stats["parked"] == 0
        # the home site applied nothing remotely (its writes are local)
        # but its store holds the key it wrote
        assert home["applies"] == 0 and home["store_keys"] >= 1

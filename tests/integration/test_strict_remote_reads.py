"""The RemoteFetch correctness completion (see DESIGN.md §2a).

The paper's RemoteFetch serves the variable's current value immediately.
FIFO channels guarantee the requester's *own* update reaches the server
before the fetch — but they do not guarantee it has been **applied**: the
update can sit in the server's activation buffer waiting for a causally
earlier write from a third site.  A fetch served in that window returns a
causally illegal value (here: the initial value, after the requester's own
write — a read-your-writes violation).

Scenario (latencies in ms)::

    site 1 --- w(y) update, slow (100) ---> site 2
    site 0 reads y from site 1 (fast), then writes x (replicas {1,2});
    x's update reaches site 2 fast but BUFFERS behind y's.
    site 0 remote-reads x from site 2.

The library's one read path carries the requester's dependency summary
on the fetch, and the server defers the reply until the buffered updates
apply.  The paper-literal read (``tests/paper_literal.py``) reproduces
the anomaly — and the checker catches it.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConsistencyViolationError
from repro.obs.registry import MetricsRegistry
from repro.service.harness import ServiceCluster
from repro.service.transport import Connection, LoopbackTransport
from repro.service.wire import REPL_FRAME_KINDS
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.verify.checker import check_history
from tests.paper_literal import use_paper_literal_reads

PARTIAL_PROTOCOLS = ["full-track", "opt-track"]


def make_cluster(protocol):
    base = np.array(
        [
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 100.0],  # 1 -> 2 is the slow WAN hop
            [1.0, 100.0, 0.0],
        ]
    )
    placement = {"x": (1, 2), "y": (1, 2)}
    return Cluster(
        ClusterConfig(
            n_sites=3,
            protocol=protocol,
            placement=placement,
            latency=MatrixLatency(base, jitter_sigma=0.0),
            seed=0,
        )
    )


def set_up_buffered_update(cluster):
    """Run the scenario up to the point where site 0's x-update is buffered
    at site 2 behind site 1's slow y-update."""
    cluster.session(1).write("y", "dep")          # update 1->2 in flight (t=100)
    assert cluster.session(0).read("y") == "dep"  # fast fetch from site 1
    cluster.session(0).write("x", "mine")         # update 0->2 arrives fast...
    cluster.sim.run(until=10.0)                   # ...and buffers at site 2
    assert len(cluster.sites[2].pending_updates) == 1


def fetch_x_from_site2(cluster):
    """Site 0 remote-reads x, explicitly from the stalled replica."""
    sim_site = cluster.sites[0]
    proto = sim_site.protocol
    req = proto.make_fetch_request("x", server=2)
    box = []
    sim_site.send_fetch(req, lambda r: box.append(proto.complete_remote_read(r)))
    cluster.sim.run(stop_when=lambda: bool(box))
    value, wid = box[0]
    cluster.history.record_read(0, "x", value, wid, cluster.sim.now)
    return value


class TestLenientModeAnomaly:
    """The paper-literal read, substituted through the protocol registry."""

    @pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
    def test_read_your_write_violated_without_strict(self, protocol, monkeypatch):
        use_paper_literal_reads(monkeypatch)
        cluster = make_cluster(protocol)
        set_up_buffered_update(cluster)
        value = fetch_x_from_site2(cluster)
        assert value is None  # own write invisible: stale
        report = check_history(cluster.history, cluster.placement, raise_on_error=False)
        assert not report.ok
        assert any(v.kind == "stale-read" for v in report.violations)
        cluster.settle()

    @pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
    def test_checker_raises(self, protocol, monkeypatch):
        use_paper_literal_reads(monkeypatch)
        cluster = make_cluster(protocol)
        set_up_buffered_update(cluster)
        fetch_x_from_site2(cluster)
        with pytest.raises(ConsistencyViolationError):
            check_history(cluster.history, cluster.placement)
        cluster.settle()


class TestStrictModeFixes:
    @pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
    def test_read_your_write_holds_with_strict(self, protocol):
        cluster = make_cluster(protocol)
        set_up_buffered_update(cluster)
        value = fetch_x_from_site2(cluster)
        assert value == "mine"  # the server waited out its buffer
        assert check_history(cluster.history, cluster.placement).ok
        cluster.settle()

    @pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
    def test_strict_fetch_fast_when_no_deps(self, protocol):
        # a requester with no causal past is served without stalling
        cluster = make_cluster(protocol)
        start = cluster.sim.now
        value = fetch_x_from_site2(cluster)
        assert value is None  # nothing written: initial value is legal
        assert cluster.sim.now - start < 10  # one fast round trip
        cluster.settle()

    @pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
    def test_session_reads_are_strict_by_default(self, protocol):
        cluster = make_cluster(protocol)
        set_up_buffered_update(cluster)
        # the public Session API picks a server itself; wherever it reads
        # from, the result must be causally safe
        assert cluster.session(0).read("x") == "mine"
        assert check_history(cluster.history, cluster.placement).ok
        cluster.settle()


class HoldingConnection(Connection):
    """A link connection into the held site: holds the repl frames it
    sends while ``holding``, records the ``fetch`` frames it sends, and
    holds the ``fetch.ok`` it receives until ``replies`` is set."""

    def __init__(self, inner, transport):
        self._inner = inner
        self._transport = transport

    @property
    def codec(self):
        return self._inner.codec

    @property
    def agreed_version(self):
        return self._inner.agreed_version

    def negotiate(self, codec, agreed=None):
        self._inner.negotiate(codec, agreed)

    async def send(self, frame):
        await self.send_many([frame])

    async def send_many(self, frames):
        t = self._transport
        t.fetches.extend(f for f in frames if f["t"] == "fetch")
        if t.holding:
            t.held.append((self._inner, [f for f in frames if f["t"] in REPL_FRAME_KINDS]))
            frames = [f for f in frames if f["t"] not in REPL_FRAME_KINDS]
        await self._inner.send_many(frames)

    async def recv(self):
        frame = await self._inner.recv()
        t = self._transport
        if frame is not None and frame["t"] == "fetch.ok" and not t.replies.is_set():
            t.held_replies += 1
            await t.replies.wait()
        return frame

    async def close(self):
        await self._inner.close()

    @property
    def peer(self):
        return self._inner.peer


class HoldingTransport(LoopbackTransport):
    """Loopback, with every link into ``into`` (site 1 by default) on a
    :class:`HoldingConnection`: replication into that site waits for
    :meth:`release` while ``holding``."""

    def __init__(self, metrics, into="site-1"):
        super().__init__(metrics=metrics)
        self.into = into
        self.holding = False
        self.held = []
        self.fetches = []
        self.held_replies = 0
        self.replies = asyncio.Event()
        self.replies.set()

    async def connect(self, address):
        inner = await super().connect(address)
        return HoldingConnection(inner, self) if address == self.into else inner

    async def release(self):
        self.holding = False
        for inner, frames in self.held:
            await inner.send_many(frames)


def test_service_strict_read_refetches_a_reply_staled_in_flight():
    """Fetches carry ``deps``, yet on the service a reply can go stale
    while it is in flight: both sessions of a site share its log, and
    the log grows while one of them waits.  Session A's get of ``x1``
    is served by site 1 and its reply held; meanwhile session B, at the
    same site, reads ``x0`` from site 0, whose metadata names a write of
    ``x1`` still in flight to site 1.  When A's reply lands it is stale
    against the grown log: the site must discard it, re-fetch, and
    return the fresh value."""

    async def main():
        metrics = MetricsRegistry()
        transport = HoldingTransport(metrics)
        placement = {"x0": (0,), "x1": (1,)}
        async with ServiceCluster(3, 2, "opt-track", placement=placement,
                                  sanitize=True, metrics=metrics,
                                  transport=transport) as cluster:
            writer = cluster.client(home=0)
            a, b = cluster.client(home=2), cluster.client(home=2)
            await writer.put("x1", "warm")
            await cluster.quiesce()
            assert (await a.get("x1"))[0] == "warm"  # the 2 -> 1 link is up
            transport.holding = True
            await writer.put("x1", "fresh")  # in flight to site 1, held
            await writer.put("x0", "x")  # its metadata names that write
            transport.replies.clear()
            read = asyncio.ensure_future(a.get("x1"))
            for _ in range(200):
                if transport.held_replies:
                    break
                await asyncio.sleep(0.005)
            assert transport.held_replies == 1  # served "warm", held back
            assert (await b.get("x0"))[0] == "x"  # the shared log grows
            transport.replies.set()
            await asyncio.sleep(0.02)
            assert not read.done()  # the re-fetch is parked at site 1
            await transport.release()
            value, _, by = await asyncio.wait_for(read, 2.0)
            await cluster.quiesce()
            for client in (writer, a, b):
                await client.close()
            return value, by, metrics.snapshot()["counters"]

    value, by, counters = asyncio.run(main())
    assert (value, by) == ("fresh", 1)
    assert counters["service_stale_replies_total{site=2}"] >= 1


@pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
def test_service_local_get_waits_for_what_a_remote_get_imported(protocol):
    """A remote get at site 2 imports knowledge of a write whose update
    to site 2 is held back on the link; a local get of that variable
    must wait for it instead of returning the value it overwrote.  Site
    0 writes ``y`` (replicas 0 and 2), then ``x`` (site 0 only), so
    ``x``'s metadata names ``w(y)``; site 2 reads ``x`` remotely, then
    ``y`` locally."""

    async def main():
        metrics = MetricsRegistry()
        transport = HoldingTransport(metrics, into="site-2")
        placement = {"x": (0,), "y": (0, 2)}
        async with ServiceCluster(3, 2, protocol, placement=placement,
                                  sanitize=True, metrics=metrics,
                                  transport=transport) as cluster:
            writer, reader = cluster.client(home=0), cluster.client(home=2)
            await writer.put("y", "old")
            await cluster.quiesce()
            assert (await reader.get("y"))[0] == "old"
            transport.holding = True
            await writer.put("y", "new")  # in flight to site 2, held
            await writer.put("x", "x")
            assert (await reader.get("x"))[:3:2] == ("x", 0)
            local = asyncio.ensure_future(reader.get("y"))
            await asyncio.sleep(0.05)
            waited = not local.done()
            await transport.release()
            value, _, by = await asyncio.wait_for(local, 2.0)
            await cluster.quiesce()
            for client in (writer, reader):
                await client.close()
            return waited, value, by

    waited, value, by = asyncio.run(main())
    assert waited  # the read gate held the local get
    assert (value, by) == ("new", 2)

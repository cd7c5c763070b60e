"""Pinned regressions for stale remote-read replies.

The paper's literal RemoteFetch sends no dependency summary, and the
server answers at once.  The reply can then hold a value the requester's
own metadata already proves causally overwritten: the requester imports
third-party dependency knowledge through earlier reads, while the server
has not applied the corresponding updates yet.

The first three pins are the two shrunken falsifying examples found by
``tests/property/test_sanitizer_properties.py::test_sanitized_run_stays_clean``
under that read (the Opt-Track one also through the distributed-prune
variant).  The
client-side reply-freshness gate (``CausalProtocol.reply_is_fresh``)
alone rescues them.  Beside them sit ROADMAP item 1's seeds, which the
gate alone does not rescue: the library's one read path (DESIGN.md §2a,
completions 2 + 3a) passes all of them, and the paper-literal mutant
(``tests/paper_literal.py``) must still be caught on each.
"""

import numpy as np
import pytest

from repro.errors import ConsistencyViolationError
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.workload.generator import WorkloadConfig, generate
from tests.integration.test_strict_remote_reads import HoldingTransport
from tests.paper_literal import use_paper_literal_reads

#: (protocol, protocol_kwargs, (n_sites, n_vars, repl_factor, seed, ops_per_site))
GATE_PINNED = [
    # opt-track-proto_kwargs0 falsifying example: site 2 read x1 = w1:3
    # from server 1 while already knowing w0:3 (imported by reading x0),
    # which causally overwrites it and was still in flight to server 1.
    pytest.param("opt-track", {}, (3, 3, 1, 5137556, 15), id="opt-track"),
    # the same schedule through the distributed-prune variant
    pytest.param(
        "opt-track",
        {"distributed_prune": True},
        (3, 3, 1, 5137556, 15),
        id="opt-track-distributed-prune",
    ),
    # full-track-proto_kwargs2 falsifying example: site 3 read x0 = w2:4
    # from a server that had not yet applied w1:1, known to the requester.
    pytest.param("full-track", {}, (4, 3, 2, 20036823, 15), id="full-track"),
]

#: ROADMAP item 1's seeds: the paper-literal read returns a stale value
#: on them that the freshness gate does not catch.  Found by sweeping
#: seeds 0..1999 at n = 3, q = 3, p = 1 — 15 bad at 15 ops/site, one
#: (1806) at 3 ops/site.
ITEM_1_SEEDS = [(59, 15), (258, 15), (536416, 15), (1806, 3)]

ITEM_1 = [
    pytest.param(protocol, {}, (3, 3, 1, seed, ops), id=f"{protocol}-{seed}-{ops}ops")
    for protocol in ("opt-track", "full-track")
    for seed, ops in ITEM_1_SEEDS
]


def run_pinned(protocol, proto_kwargs, params):
    """The pinned schedule under the sanitizer and the history checker
    (either raises on a violation)."""
    n, q, p, seed, ops_per_site = params
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 80.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    cfg = ClusterConfig(
        n_sites=n,
        n_variables=q,
        protocol=protocol,
        replication_factor=p,
        latency=MatrixLatency(base, jitter_sigma=0.2),
        seed=seed,
        sanitize=True,
        protocol_kwargs=proto_kwargs,
    )
    cluster = Cluster(cfg)
    wl = generate(
        WorkloadConfig(
            n_sites=n,
            ops_per_site=ops_per_site,
            write_rate=0.4,
            variables=cluster.variables,
            seed=seed,
        )
    )
    return cluster.run(wl)


@pytest.mark.parametrize("protocol,proto_kwargs,params", GATE_PINNED + ITEM_1)
def test_pinned_lenient_stale_reply_examples(protocol, proto_kwargs, params):
    """The library's read path is clean on every pinned schedule."""
    assert run_pinned(protocol, proto_kwargs, params).ok


@pytest.mark.parametrize("protocol,proto_kwargs,params", GATE_PINNED)
def test_freshness_gate_rescues_the_paper_literal_read(
    protocol, proto_kwargs, params, monkeypatch
):
    use_paper_literal_reads(monkeypatch)
    assert run_pinned(protocol, proto_kwargs, params).ok


@pytest.mark.parametrize("protocol,proto_kwargs,params", ITEM_1)
def test_paper_literal_read_is_caught(protocol, proto_kwargs, params, monkeypatch):
    """The must-catch half: the oracles see the stale read the
    completions prevent."""
    use_paper_literal_reads(monkeypatch)
    with pytest.raises(ConsistencyViolationError):
        run_pinned(protocol, proto_kwargs, params)


def test_stale_reply_is_discarded_without_merging():
    """A provably stale reply must not be consumed: the freshness gate
    fires and the requester's log is untouched (merging a stale log could
    mask the staleness of the retried fetch)."""
    from repro.core.base import ProtocolConfig
    from repro.core.opt_track import OptTrackProtocol

    placement = {"x": (0,), "y": (1,)}
    cfgs = [
        ProtocolConfig(n=3, site=i, replicas_of=placement) for i in range(3)
    ]
    writer, server, reader = (OptTrackProtocol(c) for c in cfgs)

    # site 0 writes y (destined to site 1); site 2 learns of that write by
    # fetching x from site 0 and absorbing the piggybacked log
    res_y = writer.write("y", 1)
    res_x = writer.write("x", 2)
    req = reader.make_fetch_request("x", server=0)
    reply = writer.serve_fetch(req)
    assert reader.reply_is_fresh(reply)  # served by the writer itself
    reader.complete_remote_read(reply)

    # server 1 has not applied w(y) yet: its reply to a fetch of y is stale
    req_y = reader.make_fetch_request("y", server=1)
    stale = server.serve_fetch(req_y)
    assert not reader.reply_is_fresh(stale)

    # after the server applies the in-flight update, a re-fetch is fresh
    (msg,) = res_y.messages
    assert server.can_apply(msg)
    server.apply_update(msg)
    fresh = server.serve_fetch(reader.make_fetch_request("y", server=1))
    assert reader.reply_is_fresh(fresh)
    value, wid = reader.complete_remote_read(fresh)
    assert (value, wid) == (1, res_y.write_id)


def test_strict_mode_replies_always_fresh():
    """The server defers until the piggybacked dependency summary is
    applied, so the gate passes the reply it then serves — unless the
    requester's summary grew while the fetch was in flight
    (``test_strict_remote_reads.py`` stages that on the service)."""
    from repro.core.base import ProtocolConfig
    from repro.core.full_track import FullTrackProtocol

    placement = {"x": (0,), "y": (1,)}
    cfgs = [
        ProtocolConfig(n=3, site=i, replicas_of=placement) for i in range(3)
    ]
    writer, server, reader = (FullTrackProtocol(c) for c in cfgs)
    res_y = writer.write("y", 1)
    writer.write("x", 2)
    reply = writer.serve_fetch(reader.make_fetch_request("x", server=0))
    reader.complete_remote_read(reply)

    req_y = reader.make_fetch_request("y", server=1)
    assert not server.can_serve_fetch(req_y)  # the server defers
    (msg,) = res_y.messages
    server.apply_update(msg)
    assert server.can_serve_fetch(req_y)
    assert reader.reply_is_fresh(server.serve_fetch(req_y))


def test_service_stale_reply_is_followed_by_one_parked_refetch(monkeypatch):
    """The same corner through the networked service, on the paper-
    literal read: the requester answers a stale reply with ONE re-fetch
    naming the records the reply's snapshot missed; the serving site
    parks it and answers on the apply.  No polling — while the update
    is held back for 50 ms (a dozen rounds of the old 2 ms × attempt
    sleep loop) exactly two fetch frames reach the serving site."""
    import asyncio

    from repro.obs.registry import MetricsRegistry
    from repro.service.harness import ServiceCluster

    use_paper_literal_reads(monkeypatch)

    async def main():
        metrics = MetricsRegistry()
        transport = HoldingTransport(metrics)
        placement = {"x0": (0,), "x1": (1,)}
        async with ServiceCluster(3, 2, "opt-track", placement=placement,
                                  sanitize=True, metrics=metrics,
                                  transport=transport) as cluster:
            writer = cluster.client(home=0)
            reader = cluster.client(home=2)
            await writer.put("x1", "warm")  # links up, chains started
            await cluster.quiesce()
            transport.holding = True
            await writer.put("x1", "y")  # in flight to site 1, held
            await writer.put("x0", "x")
            # reading x0 at its writer imports knowledge of the held write
            assert (await reader.get("x0"))[0] == "x"
            del transport.fetches[:]
            read = asyncio.ensure_future(reader.get("x1"))
            await asyncio.sleep(0.05)
            parked = cluster.servers[1]._waiting
            fetches = list(transport.fetches)
            assert not read.done()
            await transport.release()
            value, _, by = await asyncio.wait_for(read, 2.0)
            await cluster.quiesce()
            await writer.close()
            await reader.close()
            return value, by, parked, fetches, metrics.snapshot()["counters"]

    value, by, parked, fetches, counters = asyncio.run(main())
    assert (value, by) == ("y", 1)
    assert parked == 1  # the re-fetch sat in site 1's _wait_for
    assert len(fetches) == 2
    assert fetches[0]["deps"] is None  # paper-literal: the first carries nothing
    assert fetches[1]["deps"] is not None  # the re-fetch names what was missed
    assert counters["service_stale_replies_total{site=2}"] == 1

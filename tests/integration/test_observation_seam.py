"""Every subscriber of the observation seam sees every event.

The §II-B ``Tracer``, the ``History``, the lifecycle ``TraceRecorder``
and the sanitizer's ``CausalTrace`` are four views of one event stream
(``repro.core.observe``).  Driven through every read path — plain
``Session.read``, ``read_snapshot``, a remote read, batched updates and
an ``AppProcess`` workload — they must agree on what happened: the
writes issued, the applies as ``(site, write_id)`` and the reads.
"""

import asyncio
from collections import Counter

import pytest

from repro.obs.jsonl import load_trace
from repro.obs.recorder import TraceRecorder, decode_write_id
from repro.obs.replay import replay_trace
from repro.service.harness import ServiceCluster
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.events import ApplyEvent, ReturnEvent, SendEvent
from repro.workload.generator import WorkloadConfig, generate

PARTIAL = ["full-track", "opt-track"]
ALL_PROTOCOLS = PARTIAL + ["opt-track-crp", "optp", "ahamad"]


def drive(protocol, batch_window):
    partial = protocol in PARTIAL
    # partial replication leaves site 2 without x and y: its reads of
    # them are remote
    placement = (
        {"x": (0, 1), "y": (0, 1), "z": (1, 2)}
        if partial
        else {v: (0, 1, 2) for v in ("x", "y", "z")}
    )
    cluster = Cluster(
        ClusterConfig(
            n_sites=3,
            protocol=protocol,
            placement=placement,
            seed=5,
            trace=True,
            record_history=True,
            sanitize=True,
            batch_window=batch_window,
        )
    )
    s0, s1, s2 = (cluster.session(i) for i in range(3))
    s0.write("x", 1)
    s1.write("y", 2)
    s1.write("z", 3)
    cluster.settle()
    assert s1.read("x") == 1
    assert {v: val for v, (val, _) in s0.read_snapshot(["x", "y"]).items()} == {
        "x": 1,
        "y": 2,
    }
    assert s2.read("x") == 1  # remote under partial replication
    workload = generate(
        WorkloadConfig(
            n_sites=3,
            ops_per_site=15,
            write_rate=0.5,
            placement=cluster.placement,
            seed=11,
        )
    )
    assert cluster.run(workload).ok
    return cluster


def views(cluster):
    """Per subscriber: (writes issued, applies, reads), each a multiset."""
    history = cluster.history
    hist = (
        Counter(r.write_id for r in history.writes),
        Counter((a.site, a.write_id) for a in history.applies),
        Counter((r.site, r.var, r.write_id) for r in history.reads),
    )
    events = cluster.tracer.events
    tracer_applies = [
        (e.site, e.write_id) for e in events if isinstance(e, ApplyEvent)
    ]
    tracer = (
        # §II-B has no issue event: a write shows as its sends, or as
        # its writer's local apply when no remote replica exists
        Counter(
            {e.write_id for e in events if isinstance(e, SendEvent)}
            | {w for s, w in tracer_applies if s == w.site}
        ),
        Counter(tracer_applies),
        Counter(
            (e.site, e.var, e.write_id) for e in events if isinstance(e, ReturnEvent)
        ),
    )
    records = cluster.recorder.records

    w = decode_write_id
    recorder = (
        Counter(w(r["w"]) for r in records if r["k"] == "issue"),
        Counter((r["s"], w(r["w"])) for r in records if r["k"] == "apply"),
        Counter((r["s"], r["v"], w(r["w"])) for r in records if r["k"] == "read"),
    )
    trace = cluster.sanitizer.trace.events
    sanitizer = (
        Counter(e.write_id for e in trace if e.kind == "write"),
        Counter(
            (e.site, e.write_id) for e in trace if e.kind in ("apply", "apply-local")
        ),
        Counter((e.site, e.var, e.write_id) for e in trace if e.kind == "read"),
    )
    return hist, tracer, recorder, sanitizer


@pytest.mark.parametrize("batch_window", [None, 2.0])
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_every_subscriber_sees_every_event(protocol, batch_window):
    hist, tracer, recorder, sanitizer = views(drive(protocol, batch_window))
    writes, applies, reads = hist
    assert writes and applies and reads
    assert tracer == hist
    assert recorder == hist
    assert sanitizer == hist


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_service_trace_replays_clean(protocol, tmp_path):
    """A service site reports its writer's local apply as the simulator
    does, so the trace of a correct service run replays through the
    sanitizer's oracle with no violation: every write is committed at
    its origin before a write that depends on it lands elsewhere."""
    path = tmp_path / "service.jsonl"
    recorder = TraceRecorder(str(path))

    async def main():
        async with ServiceCluster(
            3, 4, protocol, replication_factor=3, recorder=recorder
        ) as cluster:
            clients = [cluster.client(home=s) for s in range(3)]
            for i in range(15):
                var = cluster.variables[i % 4]
                await clients[i % 3].put(var, f"v{i}")
                await cluster.quiesce()
                # the next writer reads this write first: its own next
                # write depends on it, and lands back at this origin
                value, _, _ = await clients[(i + 1) % 3].get(var)
                assert value == f"v{i}"
            for client in clients:
                await client.close()
            await cluster.quiesce()

    asyncio.run(main())
    recorder.close()
    loaded = load_trace(path)
    report = replay_trace(loaded, n=3)
    assert report.writes == 15
    assert report.local_applies == 15
    assert report.applies == 30  # every write reaches both other sites
    assert report.checks_run == 30

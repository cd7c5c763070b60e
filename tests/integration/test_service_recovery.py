"""Kill → recover → reconverge, end to end.

The acceptance cycle for the durability subsystem: durable clusters
under real load with the causal sanitizer shadowing every site, one site
killed mid-run and restarted *in place* from its data directory — it
must recover from snapshot + WAL suffix, rejoin under a bumped
incarnation epoch, and converge back (peer-link redelivery where the
sender still holds the frames, gossip anti-entropy where it does not) —
over the loopback transport AND real TCP sockets, and beside a peer
that never gossips.
"""

import asyncio
import os
import tracemalloc

import pytest

from repro.core.base import ProtocolConfig, protocol_class
from repro.errors import ServiceError
from repro.obs.registry import MetricsRegistry
from repro.service import wire
from repro.service.durability import SiteWal, WalCorruptionError
from repro.service.harness import ServiceCluster
from repro.service.loadgen import LoadGenerator
from repro.service.server import SiteServer
from repro.service.transport import TcpTransport
from tests.conftest import open_handshaken


def run(coro):
    return asyncio.run(coro)


def shared_var(cluster, a, b):
    """A variable both sites replicate (exists under round-robin p=2)."""
    return next(
        v
        for v in cluster.variables
        if a in cluster.placement[v] and b in cluster.placement[v]
    )


async def crash_recover_cycle(cluster, metrics, ops_per_site=30):
    """Load; kill the last site mid-run; write post-crash; restart it;
    reconverge; read the post-crash write back at the revived site."""
    gen = LoadGenerator(
        cluster, workload="a", ops_per_site=ops_per_site,
        seed=cluster.seed, metrics=metrics,
    )
    run_task = asyncio.ensure_future(gen.run())
    while gen.completed < gen.total_ops // 3 and not run_task.done():
        await asyncio.sleep(0.001)
    victim = cluster.n - 1
    cluster.kill_site(victim)
    report = await run_task
    await cluster.quiesce()
    # survivors settled: every earlier write is in this write's causal
    # past, so the revived site must converge to exactly this value
    var = shared_var(cluster, 0, victim)
    probe = cluster.client(0)
    await probe.put(var, "post-crash")
    await probe.close()
    revived = await cluster.restart_site(victim)
    await cluster.quiesce(timeout=10.0)
    reader = cluster.client(victim)
    value, _, _ = await reader.get(var)
    await reader.close()
    return report, revived, value


class TestLoopbackRecovery:
    def test_kill_recover_reconverge(self, tmp_path):
        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2, sanitize=True,
                metrics=metrics, data_dir=str(tmp_path),
                snapshot_interval=0.2, gossip_interval=0.05,
            ) as cluster:
                report, revived, value = await crash_recover_cycle(
                    cluster, metrics
                )
                checks = cluster.sanitizer.checks_run
                return report, revived.epoch, value, checks

        report, epoch, value, checks = run(main())
        assert report.errors == 0
        assert value == "post-crash"
        assert epoch == 2  # recovered under a bumped incarnation
        assert checks > 0  # the sanitizer actually shadowed the run

    def test_recovered_state_matches_survivors(self, tmp_path):
        """Snapshot + WAL-suffix recovery reproduces the pre-crash
        store: every variable the victim replicates reads back at the
        revived site exactly as at a survivor."""

        async def main():
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2, sanitize=True,
                data_dir=str(tmp_path), gossip_interval=0.05,
            ) as cluster:
                victim = 2
                c = cluster.client(0)
                for i in range(8):
                    await c.put(shared_var(cluster, 0, victim), f"a{i}")
                    await c.put(shared_var(cluster, 0, 1), f"b{i}")
                await c.close()
                await cluster.quiesce()
                # a mid-history snapshot, then more traffic => recovery
                # must stitch snapshot + WAL suffix together
                await cluster.servers[victim].snapshot_now()
                c = cluster.client(1)
                for i in range(8):
                    await c.put(shared_var(cluster, 1, victim), f"c{i}")
                await c.close()
                await cluster.quiesce()
                before = dict(cluster.servers[victim].protocol._values)
                applies = cluster.servers[victim].applies
                cluster.kill_site(victim)
                revived = await cluster.restart_site(victim)
                await cluster.quiesce(timeout=10.0)
                return before, dict(revived.protocol._values), applies, revived.applies

        before, after, applies_before, applies_after = run(main())
        assert after == before
        # the apply count is cumulative across incarnations: the
        # snapshot restores its base, WAL replay re-adds the suffix
        assert applies_before > 0 and applies_after == applies_before

    def test_gossip_repairs_what_no_link_still_holds(self, tmp_path):
        """The case peer-link redelivery cannot heal: the ORIGIN crashes
        with updates still queued on its in-memory links.  The queue
        dies with it; only its recovered own-write log, offered through
        gossip, can close the gap at the destination."""

        async def main():
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2, sanitize=True,
                data_dir=str(tmp_path), gossip_interval=0.05,
            ) as cluster:
                var = shared_var(cluster, 0, 1)
                # the destination is dead while the origin writes, so
                # the copies sit in the origin's volatile link queue...
                cluster.kill_site(1)
                c = cluster.client(0)
                for i in range(5):
                    await c.put(var, f"v{i}")
                await c.close()
                # ...and die with the origin
                cluster.kill_site(0)
                await cluster.restart_site(0)
                await cluster.restart_site(1)
                # quiesce alone is not convergence here: nothing is in
                # flight until a digest round fires, so wait for the
                # anti-entropy loop to notice the gap, then settle
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while (
                    cluster.servers[1]._origin_applied.get(0, 0) < 5
                    and loop.time() < deadline
                ):
                    await asyncio.sleep(0.02)
                await cluster.quiesce(timeout=10.0)
                reader = cluster.client(1)
                value, wid, _ = await reader.get(var)
                await reader.close()
                origin_applied = dict(cluster.servers[1]._origin_applied)
                return value, wid, origin_applied

        value, wid, origin_applied = run(main())
        assert value == "v4"
        assert wid.site == 0
        assert origin_applied[0] >= wid.seq

    def test_quiesce_settles_with_gossip_running(self, tmp_path):
        """Satellite: an anti-entropy round in flight can never look
        settled — quiesce() must neither hang on a healthy gossiping
        cluster nor report settled while a repair is mid-flight."""

        async def main():
            metrics = MetricsRegistry()
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2, sanitize=True,
                metrics=metrics, data_dir=str(tmp_path),
                gossip_interval=0.02,  # aggressive: rounds every ~20ms
            ) as cluster:
                gen = LoadGenerator(
                    cluster, workload="a", ops_per_site=30, seed=1,
                    metrics=metrics,
                )
                report = await gen.run()
                for _ in range(5):
                    await cluster.quiesce()
                snap = metrics.snapshot()["counters"]
                digests = sum(
                    v for k, v in snap.items()
                    if k.startswith("service_gossip_digests_total")
                )
                stores = [dict(s.protocol._values) for s in cluster.servers]
                placement = cluster.placement
                return report, digests, stores, placement

        report, digests, stores, placement = run(main())
        assert report.errors == 0
        assert digests > 0  # gossip really was running
        # settled means converged: every replica of every variable agrees
        for var, replicas in placement.items():
            values = {
                repr(stores[s][var]) for s in replicas if var in stores[s]
            }
            assert len(values) <= 1, f"{var} diverged across {replicas}"

    def test_raw_wal_records_recover(self, tmp_path):
        """A received repl frame that is self-contained — full, with a
        literal variable name — is logged as its raw wire bytes
        (SiteWal.append_raw); recovery must replay those records, the
        stamped ``repl.t`` and the unstamped ``repl`` alike, to exactly
        the state they produced live.  A real link interns, chains and
        sends lean headers, so the frames come from a hand-driven link
        connection, spelled by the plain encoder (full header: a lean
        body is never logged raw)."""

        async def main():
            # no sanitizer: the writes are minted by a site-0 twin it
            # never saw.  No gossip: the real site 0 knows nothing of
            # them either, and restart needs no catch-up here
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2,
                data_dir=str(tmp_path),
            ) as cluster:
                victim = 2
                var = shared_var(cluster, 0, victim)
                twin = protocol_class("opt-track")(
                    ProtocolConfig(n=3, site=0, replicas_of=cluster.placement)
                )
                conn, _ = await open_handshaken(
                    cluster.transport, f"site-{victim}", src=0, epoch=77
                )
                frames = []
                for i in range(10):
                    msg = next(m for m in twin.write(var, f"v{i}").messages
                               if m.dest == victim)
                    issued = float(i) if i % 2 else None
                    frames.append(
                        wire.BINARY_CODEC.pack_update(msg, i + 1, issued)
                    )
                kinds = {wire.encoded_kind(f) for f in frames}
                await conn.send_many(frames)
                ack = await conn.recv()
                await conn.close()
                raw = cluster.servers[victim].wal.raw_appends
                before = dict(cluster.servers[victim].protocol._values)
                cluster.kill_site(victim)
                revived = await cluster.restart_site(victim)
                await cluster.quiesce(timeout=10.0)
                return (
                    kinds, ack, raw, before[var], before,
                    dict(revived.protocol._values), revived.wal_replayed,
                    revived.applies,
                )

        kinds, ack, raw, held, before, after, replayed, applies = run(main())
        assert kinds == {"repl", "repl.t"}
        assert (ack["t"], ack["a"]) == ("repl.ackp", 10)
        assert raw == 10        # the fast path really engaged, every frame
        assert held[0] == "v9"  # the last write's value is in the store
        assert after == before  # raw records replay to the same state
        assert replayed >= raw  # and they were all part of the replay
        assert applies == 10

    def test_delta_profile_falls_back_to_reencode(self, tmp_path):
        """A repl.delta body diffs against per-connection chain state
        and a link interns variable names against its table, so neither
        can be logged raw: every update a real link delivers must take
        the standalone re-encode path."""

        async def main():
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2,
                data_dir=str(tmp_path), gossip_interval=0.05,
            ) as cluster:
                c = cluster.client(0)
                for i in range(5):
                    await c.put(shared_var(cluster, 0, 2), f"v{i}")
                await c.close()
                await cluster.quiesce()
                wal = cluster.servers[2].wal
                return wal.records_appended, wal.raw_appends

        records, raw = run(main())
        assert records > 0 and raw == 0

    def test_restart_without_data_dir_refuses(self):
        async def main():
            async with ServiceCluster(2, 4, "opt-track") as cluster:
                with pytest.raises(ServiceError, match="data_dir"):
                    await cluster.restart_site(1)

        run(main())

    def test_wrong_data_dir_refuses(self, tmp_path):
        """A site handed another site's directory must refuse loudly
        rather than adopt the neighbour's identity."""

        async def main():
            async with ServiceCluster(
                2, 4, "opt-track", data_dir=str(tmp_path),
                snapshot_interval=None, gossip_interval=0.05,
            ) as cluster:
                c = cluster.client(0)
                await c.put(shared_var(cluster, 0, 1), "x")
                await c.close()
                await cluster.quiesce()
                await cluster.servers[1].snapshot_now()

        run(main())
        cls = protocol_class("opt-track")
        proto = cls(ProtocolConfig(n=2, site=0, replicas_of={"x0": (0, 1)}))
        with pytest.raises(WalCorruptionError, match="wrong data dir"):
            SiteServer(
                proto,
                {0: "site-0", 1: "site-1"},
                None,
                data_dir=os.path.join(str(tmp_path), "site-1"),
            )

    def test_unknown_record_kind_refuses_by_name(self, tmp_path):
        """A well-formed record of a kind this build does not replay
        stops recovery with the kind named, rather than being skipped."""
        wal = SiteWal(str(tmp_path), fsync="none")
        wal.append(wire.make_frame("wal.mystery", x=1))
        wal.close()
        cls = protocol_class("opt-track")
        proto = cls(ProtocolConfig(n=2, site=0, replicas_of={"x0": (0, 1)}))
        with pytest.raises(WalCorruptionError, match="'wal.mystery'"):
            SiteServer(
                proto, {0: "site-0", 1: "site-1"}, None, data_dir=str(tmp_path)
            )


class TestRecoveryMemory:
    """Recovery streams the WAL: a restarted site holds one record at a
    time, never the whole log (as raw bytes or as decoded frames)."""

    @staticmethod
    def restart_peak(data_dir, puts):
        """``puts`` 1 KB writes at site 0 of a durable 2-site cluster, then
        kill and restart site 1 under tracemalloc: ``(peak bytes during
        the restart, records replayed, records the dead site appended)``."""

        async def main():
            async with ServiceCluster(
                2, 4, "opt-track", data_dir=data_dir, fsync="none"
            ) as cluster:
                client = cluster.client(0)
                for i in range(puts):
                    await client.put(cluster.variables[i % 4], f"{i:04d}" * 256)
                await client.close()
                await cluster.quiesce()
                appended = cluster.servers[1].wal.records_appended
                cluster.kill_site(1)
                tracemalloc.start()
                try:
                    revived = await cluster.restart_site(1)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                return peak, revived.wal_replayed, appended

        return run(main())

    def test_restart_peak_does_not_grow_with_the_log(self, tmp_path):
        n = 100
        small, replayed, appended = self.restart_peak(str(tmp_path / "n"), n)
        large, replayed4, appended4 = self.restart_peak(str(tmp_path / "4n"), 4 * n)
        assert appended >= n and appended4 >= 4 * n
        assert (replayed, replayed4) == (appended, appended4)
        assert large / small < 1.5, (small, large)


class TestTcpRecovery:
    def test_kill_recover_reconverge_over_tcp(self, tmp_path):
        """The same cycle across real sockets: the chaos ``kill`` frame
        downs the site, the restart re-binds the same port, and the
        revived incarnation reconverges."""

        async def main():
            addresses = {}
            for site in range(3):
                probe = await asyncio.start_server(
                    lambda r, w: w.close(), "127.0.0.1", 0
                )
                addresses[site] = (
                    f"127.0.0.1:{probe.sockets[0].getsockname()[1]}"
                )
                probe.close()
                await probe.wait_closed()
            metrics = MetricsRegistry()
            async with ServiceCluster(
                3, 6, "opt-track", replication_factor=2, sanitize=True,
                metrics=metrics, transport=TcpTransport(),
                addresses=addresses, data_dir=str(tmp_path),
                snapshot_interval=0.2, gossip_interval=0.05,
            ) as cluster:
                victim = 2
                c = cluster.client(0)
                for i in range(10):
                    await c.put(shared_var(cluster, 0, victim), f"v{i}")
                await c.close()
                await cluster.quiesce()
                killer = cluster.client(0)
                assert await killer.kill(victim)
                var = shared_var(cluster, 0, victim)
                await killer.put(var, "post-crash")
                await killer.close()
                revived = await cluster.restart_site(victim)
                await cluster.quiesce(timeout=10.0)
                reader = cluster.client(victim)
                value, _, _ = await reader.get(var)
                await reader.close()
                return revived.epoch, value

        epoch, value = run(main())
        assert epoch == 2
        assert value == "post-crash"


#: what the build that wrote ``test_wal_records.PARENT_*`` itself
#: recovered from those bytes (captured there, beside them)
PARENT_RECOVERED = {"applies": 7,
 "clock": 2,
 "origin_applied": {"0": 4, "1": 3, "2": 2},
 "own_log": [1, 2],
 "parked": 0,
 "peer_epoch": {"0": 77, "1": 6},
 "placement": {"x0": [0, 1],
               "x1": [1, 2],
               "x2": [0, 2],
               "x3": [0, 1],
               "x4": [1, 2],
               "x5": [0, 2]},
 "proto": {"ac": [4, 3, 2],
           "ceil": {"x1": [1, 1, 2, 2],
                    "x2": [0, 3, 1, 2, 2, 1],
                    "x4": [1, 3],
                    "x5": [0, 4, 1, 2]},
           "conf": 1,
           "fseq": 0,
           "known": None,
           "log": [0, 5, 2, 1, 2, 0, 2, 1, 1, 2, 2, 2],
           "lw": {"x1": [2, 1, 1, 2, 2, 2],
                  "x2": [0, 2, 0, 0, 3, 1, 1, 2, 0],
                  "x4": [1, 2, 0, 1, 3, 2],
                  "x5": [0, 3, 0, 0, 4, 1, 1, 2, 0]},
           "values": {"x1": ["own-after", [2, 2]],
                      "x2": ["d", [0, 3]],
                      "x4": ["b2", [1, 3]],
                      "x5": ["e", [0, 4]]},
           "wseq": 2},
 "seen_ls": {"0": 4, "1": 2},
 "values": {"x1": ["own-after", [2, 2]],
            "x2": ["d", [0, 3]],
            "x4": ["b2", [1, 3]],
            "x5": ["e", [0, 4]]},
 "wal_replayed": 8}


class TestParentDataDir:
    def test_directory_written_before_wire_v5_recovers(self, tmp_path):
        """docs/durability.md, "Old data directories": a directory an
        older build wrote recovers unchanged.  The bytes are the ones
        ``tests/property/test_wal_records.py`` holds — a snapshot with a
        parked update, then every record kind incl. raw ``repl`` /
        ``repl.t`` frames of the old self-contained link layout — and
        the recovered site must be, field for field, the site the
        writing build recovered."""
        from tests.property.test_wal_records import (
            PARENT_INCARNATION, PARENT_SEGMENT, PARENT_SNAP, PARENT_WAL,
        )

        data_dir = tmp_path / "site-2"
        data_dir.mkdir()
        (data_dir / "incarnation").write_bytes(PARENT_INCARNATION)
        (data_dir / "snap.bin").write_bytes(bytes.fromhex(PARENT_SNAP[0]))
        (data_dir / PARENT_SEGMENT).write_bytes(
            b"".join(bytes.fromhex(h) for h, _ in PARENT_WAL)
        )
        want = PARENT_RECOVERED
        placement = {v: tuple(r) for v, r in want["placement"].items()}
        proto = protocol_class("opt-track")(
            ProtocolConfig(n=3, site=2, replicas_of=placement)
        )
        site = SiteServer(
            proto, {s: f"site-{s}" for s in range(3)}, None,
            data_dir=str(data_dir), fsync="none",
        )
        try:
            assert site.epoch == 2  # the incarnation after the writer's
            assert site.wal_replayed == want["wal_replayed"] == len(PARENT_WAL)
            assert site.applies == want["applies"]
            assert len(site._parked) == want["parked"]
            assert sorted(site._own_log) == want["own_log"]
            for attr in ("seen_ls", "peer_epoch", "origin_applied"):
                got = {str(k): v for k, v in getattr(site, "_" + attr).items()}
                assert got == want[attr], attr
            assert proto.state_snapshot() == want["proto"]
        finally:
            site.wal.close()


class TestCapabilityFallback:
    def test_digest_without_gx_is_a_bad_frame(self):
        """What a connection may send follows from which hello opened
        it: gossip control frames are honoured on link connections only
        (there is no ``gx`` field any more), so one sent on a client
        connection is refused like an unknown frame type."""

        async def main():
            async with ServiceCluster(2, 2, "opt-track") as cluster:
                conn, ok = await open_handshaken(cluster.transport, "site-0")
                refused = []
                for frame in (
                    wire.make_frame("sys.digest", src=1, d=[]),
                    wire.make_frame("sys.range", origin=0, rq=1, lo=1, hi=2),
                ):
                    await conn.send(frame)
                    refused.append(await conn.recv())
                await conn.close()
                # the same digest on a link connection is answered
                conn, _ = await open_handshaken(
                    cluster.transport, "site-0", src=1, epoch=1
                )
                await conn.send(wire.make_frame("sys.digest", src=1, d=[]))
                answered = await conn.recv()
                await conn.close()
                return ok, refused, answered

        ok, refused, answered = run(main())
        assert "gx" not in ok
        for reply in refused:
            assert (reply["t"], reply["code"]) == ("err", "bad-frame")
        assert (answered["t"], answered["n"]) == ("sys.ctrl.ok", 1)

    def test_cycle_with_pre_durability_peer(self, tmp_path):
        """One site never gossips (no digest loop of its own — all that
        is left of the pre-durability peer this test once emulated, now
        that every peer is a current build): the kill/recover cycle on
        another site must still converge and quiesce, with the silent
        site answering the digests it is sent."""

        async def main():
            metrics = MetricsRegistry()
            cluster = ServiceCluster(
                3, 6, "opt-track", replication_factor=2, sanitize=True,
                metrics=metrics, data_dir=str(tmp_path),
                gossip_interval=0.05,
            )
            cluster.servers[1].gossip_interval = None
            async with cluster:
                report, revived, value = await crash_recover_cycle(
                    cluster, metrics
                )
                counters = metrics.snapshot()["counters"]
                return report, revived.epoch, value, counters

        report, epoch, value, counters = run(main())
        assert report.errors == 0
        assert value == "post-crash"
        assert epoch == 2
        assert "service_gossip_digests_total{site=1}" not in counters
        assert counters["service_gossip_digests_total{site=0}"] > 0


@pytest.mark.parametrize(
    "protocol", ["opt-track", "full-track", "opt-track-crp", "optp", "ahamad"]
)
def test_every_protocol_reads_and_recovers(protocol, tmp_path):
    """Every protocol on the service's read path: a sanitized, durable
    3-site cluster puts and gets at every site — remote gets for the
    partial-replication protocols, at replication factor 2 — then site
    2 is killed, restarted from its WAL, and must read back what the
    survivors read."""

    async def main():
        async with ServiceCluster(
            3, 6, protocol, replication_factor=2, sanitize=True,
            data_dir=str(tmp_path), gossip_interval=0.05,
        ) as cluster:
            written = {v: f"v{i}" for i, v in enumerate(cluster.variables)}
            clients = [cluster.client(home=s) for s in range(3)]
            for i, (var, value) in enumerate(written.items()):
                await clients[i % 3].put(var, value)
            await cluster.quiesce()
            remote = 0
            for home, client in enumerate(clients):
                for var, value in written.items():
                    got, _, by = await client.get(var)
                    assert got == value, (home, var)
                    remote += by != home
                await client.close()
            cluster.kill_site(2)
            revived = await cluster.restart_site(2)
            await cluster.quiesce(timeout=10.0)
            reader = cluster.client(home=2)
            after = {v: (await reader.get(v))[0] for v in written}
            await reader.close()
            return written, remote, revived, after, cluster.sanitizer.checks_run

    written, remote, revived, after, checks = run(main())
    assert (remote > 0) == (protocol in ("opt-track", "full-track"))
    assert revived.epoch == 2 and revived.wal_replayed > 0
    assert after == written
    assert checks > 0

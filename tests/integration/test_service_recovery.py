"""Kill → recover → reconverge, end to end.

The acceptance cycle for the durability subsystem: durable clusters
under real load with the causal sanitizer shadowing every site, one site
killed mid-run and restarted *in place* from its data directory — it
must recover from snapshot + WAL suffix, rejoin under a bumped
incarnation epoch, and converge back (peer-link redelivery where the
sender still holds the frames, the handshake's re-ship from the origin's
recovered own-write log where it does not) — over the loopback
transport AND real TCP sockets.
"""

import asyncio
import errno
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

PROTOCOLS = ["opt-track", "full-track", "opt-track-crp", "optp", "ahamad"]


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
                snapshot_interval=0.2,
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
                data_dir=str(tmp_path),
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

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_handshake_reships_what_no_link_still_holds(self, protocol, tmp_path):
        """The case peer-link redelivery cannot heal: the ORIGIN crashes
        with updates still queued on its in-memory links.  WAL replay
        rebuilds the queues, and the link handshake re-ships what lies
        above the destination's ack, which closes the gap — in the default configuration, with ``quiesce()``
        alone as the wait."""

        async def main():
            async with ServiceCluster(
                3, 6, protocol, replication_factor=2, sanitize=True,
                data_dir=str(tmp_path),
            ) as cluster:
                var = shared_var(cluster, 0, 1)
                # the destination is dead while the origin writes, so
                # the copies sit in the origin's volatile link queue...
                cluster.kill_site(1)
                c = cluster.client(0)
                for i in range(5):
                    await c.put(var, f"v{i}")
                await c.close()
                # ...and die with the origin, whose log still holds them:
                # the floor every put logged stayed at the first of them
                cluster.kill_site(0)
                origin = await cluster.restart_site(0)
                owed = sorted(
                    c for c, msgs in origin._own_log.items()
                    if any(m.dest == 1 for m in msgs)
                )
                assert len(owed) == 5
                await cluster.restart_site(1)
                await cluster.quiesce(timeout=10.0)
                reader = cluster.client(1)
                value, wid, _ = await reader.get(var)
                await reader.close()
                origin_applied = dict(cluster.servers[1]._origin_applied)
                return value, wid, origin_applied, cluster.sanitizer.checks_run

        value, wid, origin_applied, checks = run(main())
        assert value == "v4"
        assert wid.site == 0
        assert origin_applied[0] >= wid.seq
        assert checks > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_both_ends_restart_with_writes_in_flight(self, protocol, tmp_path):
        """Sender and receiver of one link both crash while it carries
        writes both ways, and both come back: once the cluster settles,
        every replica has applied every write destined to it exactly
        once — no resend from either side's recovered state applies
        twice, none is lost — and the sanitizer saw no violation."""

        async def main():
            async with ServiceCluster(
                3, 6, protocol, replication_factor=2, sanitize=True,
                data_dir=str(tmp_path),
            ) as cluster:
                clients = {s: cluster.client(home=s) for s in (0, 1)}
                writes = []  # (write id, var)

                async def put(site, i):
                    var = cluster.variables[(i + site) % len(cluster.variables)]
                    writes.append((await clients[site].put(var, f"{site}.{i}"), var))

                for i in range(12):
                    await put(0, i)
                    await put(1, i)
                # the receiver dies with the last frames on the wire...
                cluster.kill_site(1)
                for i in range(12, 18):
                    await put(0, i)
                # ...and the sender with its queue for it
                cluster.kill_site(0)
                for client in clients.values():
                    await client.close()
                await cluster.restart_site(0)
                await cluster.restart_site(1)
                await cluster.quiesce(timeout=10.0)
                state = {
                    s.site: (s.applies, dict(s._origin_applied), len(s._parked))
                    for s in cluster.servers
                }
                return writes, cluster.placement, state, cluster.sanitizer

        writes, placement, state, sanitizer = run(main())
        applies = {site: 0 for site in state}
        newest = {site: {} for site in state}
        for wid, var in writes:
            for site in placement[var]:
                if site != wid.site:
                    applies[site] += 1
                newest[site][wid.site] = max(newest[site].get(wid.site, 0), wid.seq)
        for site, (applied, origin_applied, parked) in state.items():
            assert applied == applies[site], site
            assert origin_applied == newest[site], site
            assert parked == 0
        assert sanitizer.first_violation is None
        assert sanitizer.checks_run > 0

    @pytest.mark.parametrize("protocol", ["opt-track", "full-track"])
    def test_sender_restarts_while_its_write_is_parked(self, protocol, tmp_path):
        """Site 1's write depends on site 0's, which is held on its way
        to site 2, so site 2 parks site 1's write (and acks it).  Site 1
        crashes and comes back before the hold lifts: its recovered
        queue still names the write, the handshake's ack releases it,
        and once site 0's write lands site 2 applies site 1's exactly
        once — and site 1's link learns it applied (``ap``)."""
        from tests.integration.test_strict_remote_reads import HoldingTransport

        async def main():
            metrics = MetricsRegistry()
            transport = HoldingTransport(metrics, into="site-2")
            placement = {"x": (0, 1, 2), "y": (1, 2)}
            async with ServiceCluster(
                3, 2, protocol, placement=placement, sanitize=True,
                metrics=metrics, transport=transport, data_dir=str(tmp_path),
            ) as cluster:
                t, s = cluster.client(home=0), cluster.client(home=1)
                await t.put("x", "warm")
                await s.put("y", "warm")
                await cluster.quiesce()
                receiver = cluster.servers[2]
                transport.holding = True
                held = await t.put("x", "t")  # applied at 1, held into 2
                for _ in range(400):
                    if cluster.servers[1]._origin_applied.get(0, 0) >= held.seq:
                        break
                    await asyncio.sleep(0.005)
                assert (await s.get("x"))[0] == "t"
                transport.holding = False
                parked = await s.put("y", "s")  # depends on the held write
                for _ in range(400):
                    if parked in receiver._parked_ids:
                        break
                    await asyncio.sleep(0.005)
                assert parked in receiver._parked_ids
                assert receiver._taken_in(1) == parked.seq
                cluster.kill_site(1)
                await s.close()
                revived = await cluster.restart_site(1)
                assert parked.seq in revived._own_log  # still owed, as far as it knows
                await transport.release()
                await cluster.quiesce(timeout=10.0)
                applied = dict(receiver._origin_applied)
                # the next write's ack carries the applied watermark home
                s = cluster.client(home=1)
                await s.put("y", "after")
                await cluster.quiesce(timeout=10.0)
                await s.close()
                await t.close()
                link = revived._links[2].stats()
                value = receiver.protocol.read_local("y")[0]
                return (parked, applied, receiver.applies, link, value,
                        cluster.sanitizer.first_violation)

        parked, applied, applies, link, value, violation = run(main())
        assert applied[1] == parked.seq
        # warm x, warm y, the held x, the parked y, then "after": each once
        assert applies == 5
        assert value == "after"
        assert link["unacked"] == 0 and link["applied"] >= parked.seq
        assert violation is None

    @pytest.mark.parametrize("protocol", ["opt-track", "full-track"])
    def test_down_peer_pins_the_floor_across_a_restart(self, protocol, tmp_path):
        """Writes a live peer acks do not release the ones a down peer
        never acked: the floor stays at the oldest of those, so after the
        origin restarts its log still holds them — and the acked writes
        above them, which the live peer's handshake releases, but none
        below — and the down peer's handshake gets them re-shipped."""

        def only(cluster, sites):
            return next(
                v for v in cluster.variables
                if set(cluster.placement[v]) == set(sites)
            )

        async def main():
            async with ServiceCluster(
                3, 6, protocol, replication_factor=2, sanitize=True,
                data_dir=str(tmp_path),
            ) as cluster:
                to_down, to_live = only(cluster, (0, 1)), only(cluster, (0, 2))
                c = cluster.client(0)
                await c.put(to_live, "early")
                await cluster.quiesce()
                cluster.kill_site(1)
                for i in range(3):
                    await c.put(to_down, f"owed{i}")
                for i in range(20):
                    await c.put(to_live, f"acked{i}")
                await c.close()
                await cluster.quiesce()
                live_log = {
                    c: sorted(m.dest for m in msgs)
                    for c, msgs in cluster.servers[0]._own_log.items()
                }
                cluster.kill_site(0)
                origin = await cluster.restart_site(0)
                recovered = {
                    c: sorted(m.dest for m in msgs)
                    for c, msgs in origin._own_log.items()
                }
                await cluster.restart_site(1)
                await cluster.quiesce(timeout=10.0)
                reader = cluster.client(1)
                value, _, _ = await reader.get(to_down)
                await reader.close()
                return live_log, recovered, value, dict(origin._own_log)

        live_log, recovered, value, after = run(main())
        assert live_log == {2: [1], 3: [1], 4: [1]}
        # the owed writes, and the live peer's writes logged above the floor
        assert {c: d for c, d in recovered.items() if d == [1]} == live_log
        assert set(recovered) <= set(range(2, 25))
        assert min(recovered) == 2  # the early write, acked, is gone
        assert value == "owed2"
        assert after == {}

    def test_restart_releases_what_peers_applied(self, tmp_path):
        """WAL replay rebuilds the own-write log from the retired floor
        the last ``wal.put`` names — the writes still unretired when it
        was logged — not from the last snapshot; the restarted origin's
        handshakes release what each peer's ack shows it holds, so
        once the cluster settles the log is empty again."""

        async def main():
            async with ServiceCluster(
                2, 4, "opt-track", data_dir=str(tmp_path), fsync="none"
            ) as cluster:
                c = cluster.client(0)
                for i in range(50):
                    await c.put(cluster.variables[i % 4], f"v{i}")
                await c.close()
                await cluster.quiesce()
                acked = len(cluster.servers[0]._own_log)
                data_dir = cluster.servers[0].wal.data_dir
                cluster.kill_site(0)
                puts = [f for f in SiteWal(data_dir, fsync="none").frames()
                        if f["t"] == "wal.put"]
                revived = await cluster.restart_site(0)
                replayed = sorted(revived._own_log)
                await cluster.quiesce()
                return acked, puts[-1], replayed, len(revived._own_log)

        acked, last, replayed, after = run(main())
        assert acked == 0
        seq = wire.decode_write_id(last["w"]).seq
        assert seq == 50
        # every write of the run has a destination: the log holds
        # exactly the clocks from the last put's floor up to that put
        assert replayed == list(range(seq - last["fl"], seq + 1))
        assert len(replayed) < 50
        assert after == 0

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
            # never saw.  The real site 0 knows nothing of them either,
            # so its handshake re-ships none of them
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
                    cluster.transport, f"site-{victim}", src=0
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
                data_dir=str(tmp_path),
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
                snapshot_interval=None,
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

    def test_refused_recovery_leaves_the_data_dir_unchanged(self, tmp_path):
        """A recovery that refuses starts no new life: three attempts
        leave the same segment list and the same incarnation bytes, and
        the next accepted open is incarnation 2."""
        wal = SiteWal(str(tmp_path), fsync="none")
        wal.append(wire.make_frame("wal.mystery", x=1))
        wal.close()
        inc_path = os.path.join(str(tmp_path), "incarnation")

        def state():
            with open(inc_path, "rb") as f:
                return sorted(os.listdir(str(tmp_path))), f.read()

        before = state()
        cls = protocol_class("opt-track")
        for _ in range(3):
            proto = cls(ProtocolConfig(n=2, site=0, replicas_of={"x0": (0, 1)}))
            with pytest.raises(WalCorruptionError, match="'wal.mystery'"):
                SiteServer(
                    proto, {0: "site-0", 1: "site-1"}, None,
                    data_dir=str(tmp_path),
                )
            assert state() == before
        wal = SiteWal(str(tmp_path), fsync="none")
        wal.open()
        assert wal.incarnation == 2
        wal.close()


class TestGroupFsyncErrors:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="maps fds through /proc/self/fd"
    )
    def test_failed_group_fsync_surfaces_in_stats_and_metrics(
        self, tmp_path, monkeypatch
    ):
        """The first segment fsync fails: the WAL that took it reports
        ``sync_errors == 1`` in its ``sys.stats`` durability block and
        on ``service_wal_sync_errors_total``, and keeps group-fsyncing."""
        real = os.fsync
        failed = []

        def flaky(fd):
            name = os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))
            if name.startswith("wal.") and not failed:
                failed.append(name)
                raise OSError(errno.EIO, "injected fsync failure")
            real(fd)

        monkeypatch.setattr(os, "fsync", flaky)
        metrics = MetricsRegistry()

        async def main():
            async with ServiceCluster(
                2, 4, "opt-track", data_dir=str(tmp_path), metrics=metrics,
                snapshot_interval=None,
            ) as cluster:
                client = cluster.client(0)
                await client.put(shared_var(cluster, 0, 1), "v")
                await cluster.quiesce()
                wals = [s.wal for s in cluster.servers]
                for _ in range(1000):
                    if any(w.sync_errors for w in wals) and all(
                        w.group_fsyncs for w in wals
                    ):
                        break
                    await asyncio.sleep(0.002)
                site = next(s.site for s in cluster.servers if s.wal.sync_errors)
                stats = (await client.stats(site))["durability"]
                await client.close()
                counter = metrics.counter(
                    "service_wal_sync_errors_total", site=site
                ).value
                return stats, counter, [w.group_fsyncs for w in wals]

        stats, counter, group_fsyncs = run(main())
        assert failed
        assert stats["sync_errors"] == 1
        assert stats["group_fsyncs"] >= 1
        assert counter == 1
        assert all(group_fsyncs)


class TestRecoveryMemory:
    """Recovery streams the WAL: a restarted site holds one record at a
    time, never the whole log (as raw bytes or as decoded frames)."""

    @staticmethod
    def restart_peak(data_dir, puts, victim=1):
        """``puts`` 1 KB writes at site 0 of a durable 2-site cluster, then
        kill and restart ``victim`` under tracemalloc: ``(peak bytes
        during the restart, records replayed, records the dead site
        appended)``."""

        async def main():
            async with ServiceCluster(
                2, 4, "opt-track", data_dir=data_dir, fsync="none"
            ) as cluster:
                client = cluster.client(0)
                for i in range(puts):
                    await client.put(cluster.variables[i % 4], f"{i:04d}" * 256)
                await client.close()
                await cluster.quiesce()
                appended = cluster.servers[victim].wal.records_appended
                cluster.kill_site(victim)
                tracemalloc.start()
                try:
                    revived = await cluster.restart_site(victim)
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

    def test_writer_restart_peak_does_not_grow_with_its_writes(self, tmp_path):
        """The writing site itself: every put it logged was acked long
        before the kill, so replay keeps none of them in its own-write
        log, and the peak stays flat however many it wrote."""
        n = 200
        small, replayed, appended = self.restart_peak(str(tmp_path / "n"), n, 0)
        large, replayed4, appended4 = self.restart_peak(
            str(tmp_path / "4n"), 4 * n, 0
        )
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
                snapshot_interval=0.2,
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
            for attr in ("origin_applied",):
                got = {str(k): v for k, v in getattr(site, "_" + attr).items()}
                assert got == want[attr], attr
            assert proto.state_snapshot() == want["proto"]
        finally:
            site.wal.close()


class TestCapabilityFallback:
    def test_digest_without_gx_is_a_bad_frame(self):
        """The retired anti-entropy kinds (``sys.digest`` / ``sys.range``
        / ``sys.ctrl.ok``) keep their registry tags but nothing accepts
        them: a client connection and a link connection alike answer
        each with ``err bad-frame``, as for an unknown frame type."""
        retired = (
            wire.make_frame("sys.digest", src=1, d=[]),
            wire.make_frame("sys.range", origin=0, rq=1, lo=1, hi=2),
            wire.make_frame("sys.ctrl.ok", n=1),
        )

        async def refusals(cluster, **link):
            conn, ok = await open_handshaken(cluster.transport, "site-0", **link)
            replies = []
            for frame in retired:
                await conn.send(frame)
                replies.append(await conn.recv())
            await conn.close()
            return ok, replies

        async def main():
            async with ServiceCluster(2, 2, "opt-track") as cluster:
                client = await refusals(cluster)
                link = await refusals(cluster, src=1)
                return client, link

        (ok, client), (_, link) = run(main())
        assert "gx" not in ok
        for reply in client + link:
            assert (reply["t"], reply["code"]) == ("err", "bad-frame")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_protocol_reads_and_recovers(protocol, tmp_path):
    """Every protocol on the service's read path: a sanitized, durable
    3-site cluster puts and gets at every site — remote gets for the
    partial-replication protocols, at replication factor 2 — then site
    2 is killed, restarted from its WAL, and must read back what the
    survivors read."""

    async def main():
        async with ServiceCluster(
            3, 6, protocol, replication_factor=2, sanitize=True,
            data_dir=str(tmp_path),
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


def test_serve_has_no_gossip_interval_flag():
    """The handshake is the one catch-up path: there is no anti-entropy
    period to set, and the old flag is an unrecognized argument."""
    from repro.service.cli import build_parser

    argv = ["serve", "--site", "0=127.0.0.1:7000", "--me", "0"]
    assert build_parser().parse_args(argv).command == "serve"
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--gossip-interval", "0.05"])

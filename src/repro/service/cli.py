"""``repro-kv`` — command-line front end to the networked KV service.

Subcommands::

    serve            run one site's server over TCP until interrupted
                     (``--metrics-port`` adds a Prometheus text endpoint,
                     ``--flight-dir`` a crash post-mortem directory)
    put / get        one operation against a running TCP cluster
    top              polling terminal dashboard over ``sys.stats`` frames:
                     per-site ops/s and errors, the site×site
                     replication-lag matrix, parked depths, dep-log and
                     flight-ring sizes (``--once --json`` for scripts)
    bench            closed-loop YCSB load against a loopback cluster,
                     reporting throughput and latency percentiles
    chaos-kill-site  send the chaos kill frame to one TCP site
    recover          offline report of a site's durable state — what a
                     restart from ``--data-dir`` would replay
    smoke            the CI gate: durable 3-site loopback cluster per
                     protocol, sanitizer on, one site killed mid-run,
                     restarted from its WAL, reconverged via gossip —
                     asserts zero causal violations, zero surfaced
                     request errors, and a fresh read of a post-crash
                     write at the revived site
    stats-smoke      the observability CI gate: in-process TCP cluster,
                     Prometheus scrape parsed strictly, ``top``-style
                     snapshot asserting zero lag after quiesce, then a
                     chaos kill whose flight post-mortem must replay

``serve``/``put``/``get``/``top``/``chaos-kill-site`` speak real TCP
(addresses are ``host:port``, repeated ``--site`` flags give the cluster
map); ``bench`` and ``smoke`` build the whole cluster in-process over
the loopback transport, where the causal sanitizer can shadow every
site; ``stats-smoke`` builds an in-process cluster over real TCP so the
scrape and stats paths cross actual sockets.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.base import available_protocols
from repro.errors import ServiceUnavailableError, WireError
from repro.obs.export import parse_metric_key
from repro.obs.registry import MetricsRegistry
from repro.service.client import KVClient
from repro.service.durability import FSYNC_MODES, SiteWal, WalCorruptionError
from repro.service.harness import ServiceCluster
from repro.service.loadgen import LoadGenerator
from repro.service.server import SiteServer
from repro.service.transport import TcpTransport
from repro.store.placement import make_placement
from repro.types import SiteId


def _parse_sites(pairs: List[str]) -> Dict[SiteId, str]:
    addresses: Dict[SiteId, str] = {}
    for pair in pairs:
        site, _, address = pair.partition("=")
        if not address:
            raise SystemExit(f"--site wants ID=HOST:PORT, got {pair!r}")
        addresses[int(site)] = address
    return addresses


def _add_cluster_map(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--site",
        action="append",
        default=[],
        metavar="ID=HOST:PORT",
        required=True,
        help="cluster address map entry (repeat per site)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-kv",
        description="networked causal KV service (see docs/service.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    srv = sub.add_parser("serve", help="run one site's TCP server")
    _add_cluster_map(srv)
    srv.add_argument("--me", type=int, required=True, help="this site's ID")
    srv.add_argument("--protocol", default="opt-track", choices=available_protocols())
    srv.add_argument("--variables", type=int, default=16)
    srv.add_argument("--replication-factor", type=int, default=None)
    srv.add_argument("--seed", type=int, default=0, help="placement seed")
    srv.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="also serve Prometheus text exposition on 127.0.0.1:N "
        "(0 picks a free port; printed at startup)",
    )
    srv.add_argument(
        "--flight-dir",
        default=".flight",
        metavar="DIR",
        help="where the flight recorder dumps crash post-mortems "
        "('' disables dumps; the in-memory ring stays on)",
    )
    srv.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable site state (WAL + stable-timestamp snapshots); "
        "re-serving from the same DIR recovers and rejoins under a "
        "bumped incarnation epoch (see docs/durability.md)",
    )
    srv.add_argument(
        "--fsync",
        default="group",
        choices=FSYNC_MODES,
        help="WAL fsync policy with --data-dir: 'group' batches fsyncs "
        "off the event loop, 'none' skips them (in-process kills still "
        "lose nothing; only power loss does)",
    )
    srv.add_argument(
        "--snapshot-interval",
        type=float,
        default=None,
        metavar="SECS",
        help="with --data-dir: period between stable-timestamp "
        "snapshots, each retiring the WAL prefix it covers",
    )
    srv.add_argument(
        "--gossip-interval",
        type=float,
        default=None,
        metavar="SECS",
        help="enable gossip anti-entropy: period between watermark "
        "digests to a (rotating) peer",
    )

    for name, help_text in (("put", "write VAR VALUE"), ("get", "read VAR")):
        p = sub.add_parser(name, help=help_text)
        _add_cluster_map(p)
        p.add_argument("--home", type=int, default=0, help="home (session) site")
        p.add_argument("--variables", type=int, default=16)
        p.add_argument("--replication-factor", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("var")
        if name == "put":
            p.add_argument("value")

    kill = sub.add_parser("chaos-kill-site", help="crash one TCP site")
    _add_cluster_map(kill)
    kill.add_argument("--target", type=int, required=True)

    rec = sub.add_parser(
        "recover",
        help="inspect a site's durable state offline (no incarnation bump)",
    )
    rec.add_argument(
        "--data-dir", required=True, metavar="DIR", help="the site's WAL dir"
    )
    rec.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    top = sub.add_parser(
        "top", help="live cluster dashboard over sys.stats frames"
    )
    _add_cluster_map(top)
    top.add_argument(
        "--interval", type=float, default=2.0, help="poll period, seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="one poll, print, exit"
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="with --once: machine-readable snapshot on stdout",
    )

    ssmoke = sub.add_parser(
        "stats-smoke",
        help="observability CI gate (TCP cluster, scrape, top, flight)",
    )
    ssmoke.add_argument("--sites", type=int, default=3)
    ssmoke.add_argument("--ops-per-site", type=int, default=60)
    ssmoke.add_argument("--protocol", default="opt-track",
                        choices=available_protocols())
    ssmoke.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser("bench", help="YCSB load against a loopback cluster")
    bench.add_argument("--protocol", default="opt-track", choices=available_protocols())
    bench.add_argument("--sites", type=int, default=3)
    bench.add_argument("--variables", type=int, default=16)
    bench.add_argument("--replication-factor", type=int, default=None)
    bench.add_argument("--workload", default="a", help="YCSB workload a/b/c/d/f")
    bench.add_argument("--ops-per-site", type=int, default=200)
    bench.add_argument(
        "--sessions", type=int, default=1, help="concurrent sessions per site"
    )
    bench.add_argument(
        "--value-size", type=int, default=0, help="pad written values to N bytes"
    )
    bench.add_argument("--sanitize", action="store_true")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--json", action="store_true", help="emit the metrics snapshot")

    smoke = sub.add_parser("smoke", help="CI smoke gate (loopback, chaos, sanitizer)")
    smoke.add_argument("--sites", type=int, default=3)
    smoke.add_argument("--ops-per-site", type=int, default=40)
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument(
        "--protocols",
        nargs="*",
        default=["opt-track", "full-track", "opt-track-crp"],
    )
    return parser


# ----------------------------------------------------------------------
# TCP commands
# ----------------------------------------------------------------------
def _placement(args: argparse.Namespace, n: int):
    p = args.replication_factor or n
    return make_placement("round-robin", n, args.variables, p, seed=args.seed)


async def _serve(args: argparse.Namespace) -> int:
    from repro.core.base import ProtocolConfig, protocol_class

    addresses = _parse_sites(args.site)
    n = len(addresses)
    cls = protocol_class(args.protocol)
    placement = _placement(args, n)
    proto = cls(ProtocolConfig(n=n, site=args.me, replicas_of=placement))
    server = SiteServer(
        proto,
        addresses,
        TcpTransport(),
        metrics=MetricsRegistry(),
        flight_dir=args.flight_dir or None,
        data_dir=args.data_dir,
        fsync=args.fsync,
        snapshot_interval=args.snapshot_interval,
        gossip_interval=args.gossip_interval,
    )
    await server.start()
    if args.data_dir is not None:
        print(
            f"site {args.me} durable at {args.data_dir} "
            f"(incarnation {server.epoch}, fsync={args.fsync})"
        )
    print(f"site {args.me} ({args.protocol}) serving at {addresses[args.me]}")
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.export import serve_metrics

        # per-scrape refresh recomputes the lag/depth gauges, so the
        # scrape always reflects live link state
        metrics_server = await serve_metrics(
            server.metrics, port=args.metrics_port, refresh=server.refresh_gauges
        )
        port = metrics_server.sockets[0].getsockname()[1]
        print(f"site {args.me} metrics at http://127.0.0.1:{port}/metrics")
    try:
        await server._stopped.wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        if metrics_server is not None:
            metrics_server.close()
            await metrics_server.wait_closed()
        await server.stop()
    return 0


async def _one_shot(args: argparse.Namespace) -> int:
    addresses = _parse_sites(args.site)
    placement = _placement(args, len(addresses))
    client = KVClient(addresses, placement, TcpTransport(), home=args.home)
    try:
        if args.command == "put":
            wid = await client.put(args.var, args.value)
            print(f"ok {wid}")
        else:
            value, wid, by = await client.get(args.var)
            print(f"{args.var} = {value!r}  ({wid or 'initial'}, served by s{by})")
    finally:
        await client.close()
    return 0


async def _chaos_kill(args: argparse.Namespace) -> int:
    addresses = _parse_sites(args.site)
    client = KVClient(addresses, {}, TcpTransport(), home=args.target)
    try:
        ok = await client.kill(args.target)
    finally:
        await client.close()
    print(f"site {args.target}: {'killed' if ok else 'unreachable'}")
    return 0 if ok else 1


async def _recover(args: argparse.Namespace) -> int:
    """Offline report of what a restart from ``--data-dir`` would do.

    Read-only (``SiteWal.inspect``): no incarnation bump, no truncation
    — safe to run against a live site's directory, though the tail it
    reports is then already stale.
    """
    import os

    if not os.path.isdir(args.data_dir):
        print(f"recover: no data directory at {args.data_dir}")
        return 1
    try:
        info = await asyncio.to_thread(SiteWal.inspect, args.data_dir)
    except WalCorruptionError as exc:
        print(f"recover: CORRUPT — {exc}")
        return 2
    snapshot = info["snapshot"]
    kinds: Dict[str, int] = info["kinds"]
    replay = sum(kinds.values())
    origin: Dict[str, int] = {}
    if snapshot is not None:
        it = iter(snapshot.get("origin") or ())
        origin = {str(int(o)): int(wm) for o, wm in zip(it, it)}
    if args.json:
        print(
            json.dumps(
                {
                    "data_dir": args.data_dir,
                    "incarnation": info["incarnation"],
                    "next_incarnation": info["incarnation"] + 1,
                    "snapshot": None
                    if snapshot is None
                    else {
                        "site": int(snapshot["site"]),
                        "incarnation": int(snapshot["inc"]),
                        "applies": int(snapshot["applies"]),
                        "covered_segment": info["covered_segment"],
                        "parked": len(snapshot.get("parked") or ()),
                        "own_log": len(snapshot.get("own") or ()),
                        "origin_watermarks": origin,
                    },
                    "segments": info["segments"],
                    "replay_records": replay,
                    "replay_by_kind": kinds,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"data dir     {args.data_dir}")
    print(
        f"incarnation  {info['incarnation']} "
        f"(a restart would run as {info['incarnation'] + 1})"
    )
    if snapshot is None:
        print("snapshot     none (cold log: full WAL replay)")
    else:
        print(
            f"snapshot     site {int(snapshot['site'])}, incarnation "
            f"{int(snapshot['inc'])}, {int(snapshot['applies'])} applies, "
            f"{len(snapshot.get('parked') or ())} parked, covers segments "
            f"<= {info['covered_segment']:06d}"
        )
        if origin:
            marks = ", ".join(
                f"s{o}:{wm}"
                for o, wm in sorted(origin.items(), key=lambda kv: int(kv[0]))
            )
            print(f"watermarks   {marks}")
    print(f"segments     {', '.join(info['segments']) or 'none'}")
    if kinds:
        by_kind = ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
        print(f"replay       {replay} record(s): {by_kind}")
    else:
        print("replay       0 records")
    return 0


# ----------------------------------------------------------------------
# top: the stats-frame dashboard
# ----------------------------------------------------------------------
#: server-side counters summed into one per-site "errors" column
_SERVER_ERROR_COUNTERS = (
    "service_read_timeouts_total",
    "service_fetch_failures_total",
    "service_fetch_defer_timeouts_total",
)


async def _collect_top(
    client: KVClient, addresses: Dict[SiteId, str]
) -> Dict[str, object]:
    """Poll every site's ``sys.stats`` into one dashboard snapshot: the
    ``--once --json`` output shape, also consumed by the renderer and
    asserted on by ``stats-smoke``.  A site that refuses or cannot be
    reached shows as ``{"up": False}`` — the dashboard keeps running
    through crashes (that is rather the point)."""
    sites: Dict[str, object] = {}
    lag: Dict[str, object] = {}
    for site in sorted(addresses):
        try:
            stats = await client.stats(site)
        except (
            ConnectionError,
            OSError,
            asyncio.TimeoutError,
            ServiceUnavailableError,
            WireError,
        ):
            sites[str(site)] = {"up": False}
            continue
        me = str(stats["site"])
        metrics = stats.get("metrics") or {}
        ops: Dict[str, float] = {}
        errors = 0
        for key, value in metrics.get("counters", {}).items():
            name, labels = parse_metric_key(key)
            if labels.get("site") != me:
                continue
            if name == "service_requests_total":
                op = labels.get("op", "?")
                ops[op] = ops.get(op, 0) + value
            elif name in _SERVER_ERROR_COUNTERS:
                errors += value
        visibility: Dict[str, object] = {}
        for key, hist in metrics.get("histograms", {}).items():
            name, labels = parse_metric_key(key)
            if name != "visibility_latency_ms" or labels.get("site") != me:
                continue
            count = hist["count"]
            visibility[labels.get("origin", "?")] = {
                "count": count,
                "mean_ms": hist["total"] / count if count else None,
                "max_ms": hist["max"],
            }
        sites[me] = {
            "up": True,
            "uptime_ms": stats["uptime_ms"],
            "applies": stats["applies"],
            "parked": stats["parked"],
            "store_keys": stats["store_keys"],
            "dep_log": stats["dep_log"],
            "flight": stats["flight"],
            "ops": ops,
            "errors": errors,
            "visibility_ms": visibility,
        }
        lag[me] = {
            dest: {
                "unacked": link["unacked"],
                "unapplied": link["acked"] - link["applied"],
                "flushes_inline": link["flushes_inline"],
                "flushes_task": link["flushes_task"],
            }
            for dest, link in sorted(stats.get("links", {}).items())
        }
    return {"sites": sites, "lag": lag}


def _ops_rate(cur: Dict, prev: Optional[Dict], dt: Optional[float]) -> float:
    total = sum(cur["ops"].values())
    if prev is not None and prev.get("up") and dt:
        return max(0.0, (total - sum(prev["ops"].values())) / dt)
    uptime_s = (cur.get("uptime_ms") or 0) / 1000.0
    return total / uptime_s if uptime_s > 0 else 0.0


def _render_top(
    snap: Dict, prev: Optional[Dict] = None, dt: Optional[float] = None
) -> str:
    sites: Dict[str, Dict] = snap["sites"]  # type: ignore[assignment]
    lag: Dict[str, Dict] = snap["lag"]  # type: ignore[assignment]
    ids = sorted(sites, key=int)
    up = [s for s in ids if sites[s].get("up")]
    lines = [f"repro-kv top — {len(ids)} sites, {len(up)} up"]
    lines.append(
        f"{'site':>4} {'state':>5} {'ops/s':>8} {'ops':>7} {'errs':>5} "
        f"{'applies':>8} {'parked':>6} {'deplog':>7} {'flight':>7}"
    )
    for sid in ids:
        s = sites[sid]
        if not s.get("up"):
            lines.append(f"{sid:>4} {'down':>5}")
            continue
        prev_site = (prev or {}).get("sites", {}).get(sid)
        lines.append(
            f"{sid:>4} {'up':>5} {_ops_rate(s, prev_site, dt):8.1f} "
            f"{sum(s['ops'].values()):7.0f} {s['errors']:5.0f} "
            f"{s['applies']:8d} {s['parked']:6d} "
            f"{s['dep_log']['entries']:7d} {s['flight']['held']:7d}"
        )

    def link_matrix(title: str, cell: Callable[[Dict], str], width: int) -> None:
        lines.append("")
        lines.append(f"{title} (- = no link)")
        lines.append("     " + "".join(f"{'s' + d:>{width}}" for d in ids))
        for src in ids:
            row = [f"{'s' + src:>5}"]
            for dst in ids:
                link = lag.get(src, {}).get(dst)
                if src == dst:
                    row.append(f"{'·':>{width}}")
                elif link is None:
                    row.append(f"{'-':>{width}}")
                else:
                    row.append(cell(link).rjust(width))
            lines.append("".join(row))

    def lag_cell(link: Dict) -> str:
        return f"{link['unacked']}/{link['unapplied']}"

    link_matrix("replication lag  src -> dst, unacked/unapplied", lag_cell, 10)
    # write-through evidence: flushes the enqueuer wrote in its own loop
    # step vs. flushes left to the link's writer task (reconnect,
    # backpressure, a connection that is never writable)
    link_matrix(
        "link flushes  src -> dst, inline/task",
        lambda link: f"{link['flushes_inline']}/{link['flushes_task']}",
        14,
    )
    vis_lines = []
    for sid in up:
        for origin, h in sorted(sites[sid]["visibility_ms"].items()):
            if h["count"]:
                vis_lines.append(
                    f"  s{origin} -> s{sid}: {h['count']:.0f} applies, "
                    f"mean {h['mean_ms']:.2f} ms, max {h['max_ms']:.2f} ms"
                )
    if vis_lines:
        lines.append("")
        lines.append("visibility latency (issue -> remote apply)")
        lines.extend(vis_lines)
    return "\n".join(lines)


async def _top(args: argparse.Namespace) -> int:
    addresses = _parse_sites(args.site)
    client = KVClient(addresses, {}, TcpTransport(), home=min(addresses))
    try:
        if args.once:
            snap = await _collect_top(client, addresses)
            if args.json:
                print(json.dumps(snap, indent=2, sort_keys=True))
            else:
                print(_render_top(snap))
            return 0 if any(
                s.get("up") for s in snap["sites"].values()  # type: ignore[union-attr]
            ) else 1
        loop = asyncio.get_running_loop()
        prev: Optional[Dict] = None
        prev_t: Optional[float] = None
        while True:
            now = loop.time()
            snap = await _collect_top(client, addresses)
            dt = None if prev_t is None else now - prev_t
            sys.stdout.write(
                "\x1b[2J\x1b[H" + _render_top(snap, prev, dt) + "\n"
            )
            sys.stdout.flush()
            prev, prev_t = snap, now
            await asyncio.sleep(args.interval)
    except (KeyboardInterrupt, asyncio.CancelledError):
        return 0
    finally:
        await client.close()


# ----------------------------------------------------------------------
# loopback commands
# ----------------------------------------------------------------------
async def _bench(args: argparse.Namespace) -> int:
    metrics = MetricsRegistry()
    async with ServiceCluster(
        args.sites,
        args.variables,
        args.protocol,
        replication_factor=args.replication_factor,
        sanitize=args.sanitize,
        metrics=metrics,
        seed=args.seed,
    ) as cluster:
        gen = LoadGenerator(
            cluster,
            workload=args.workload,
            ops_per_site=args.ops_per_site,
            sessions=args.sessions,
            value_size=args.value_size,
            seed=args.seed,
            metrics=metrics,
        )
        report = await gen.run()
        await cluster.quiesce()
    if args.json:
        print(json.dumps(metrics.snapshot(), indent=2, sort_keys=True))
    else:
        print(f"protocol   {args.protocol} (workload {args.workload})")
        print(report.format())
        counters = metrics.snapshot()["counters"]
        sent = sum(
            v for k, v in counters.items()
            if k.startswith("wire_bytes_sent_total")
        )
        if sent and report.ops:
            print(
                f"wire       {sent} bytes sent "
                f"({sent / report.ops:.0f} B/op)"
            )
    return 0 if report.errors == 0 else 1


async def _smoke(args: argparse.Namespace) -> int:
    """The CI gate (see module docstring and docs/service.md).

    Each protocol runs the full durability cycle: a *durable* loopback
    cluster under load, one site chaos-killed mid-run (flight
    post-mortem dumped), a post-crash write issued at a survivor, then
    the victim restarted in place from its data directory.  The restart
    must recover from snapshot + WAL suffix, rejoin under a bumped
    incarnation epoch, reconverge (peer-link redelivery + gossip
    anti-entropy), and serve a causally-consistent read of the
    post-crash write — with the sanitizer shadowing every site
    throughout, the restarted incarnation included.
    """
    import os
    import tempfile

    from repro.obs.jsonl import load_trace
    from repro.obs.timeline import render_report

    failures = 0
    for protocol in args.protocols:
        metrics = MetricsRegistry()
        with tempfile.TemporaryDirectory() as state_dir:
            flight_dir = os.path.join(state_dir, "flight")
            async with ServiceCluster(
                args.sites,
                args.sites * 2,
                protocol,
                # partial replication where the protocol supports it (the
                # harness widens to full for full-replication-only ones)
                replication_factor=2,
                sanitize=True,
                metrics=metrics,
                seed=args.seed,
                flight_dir=flight_dir,
                data_dir=os.path.join(state_dir, "data"),
                snapshot_interval=0.25,
                gossip_interval=0.05,
            ) as cluster:
                gen = LoadGenerator(
                    cluster,
                    workload="a",
                    ops_per_site=args.ops_per_site,
                    seed=args.seed,
                    metrics=metrics,
                )
                run = asyncio.ensure_future(gen.run())
                # kill the highest site once a third of the load is
                # through; clients homed there must fail over without
                # surfacing errors
                while gen.completed < gen.total_ops // 3 and not run.done():
                    await asyncio.sleep(0.001)
                victim = args.sites - 1
                cluster.kill_site(victim)
                report = await run
                try:
                    await cluster.quiesce()
                except TimeoutError:
                    print(f"  {protocol}: survivors failed to quiesce")
                    failures += 1
                # a write the dead site has never seen, against a
                # variable it replicates; the survivors have settled, so
                # every earlier write to it is in this write's causal
                # past and the restarted victim must converge to ours
                probe_var = next(
                    v
                    for v in cluster.variables
                    if victim in cluster.placement[v]
                    and 0 in cluster.placement[v]
                )
                probe = cluster.client(0)
                await probe.put(probe_var, "post-crash")
                await probe.close()
                revived = await cluster.restart_site(victim)
                try:
                    await cluster.quiesce(timeout=10.0)
                except TimeoutError:
                    print(f"  {protocol}: cluster failed to reconverge")
                    failures += 1
                reader = cluster.client(victim)
                value, _, served_by = await reader.get(probe_var)
                await reader.close()
                if value != "post-crash":
                    print(
                        f"  {protocol}: stale read after recovery — "
                        f"{probe_var} = {value!r} from s{served_by}"
                    )
                    failures += 1
                checks = (
                    cluster.sanitizer.checks_run
                    if cluster.sanitizer is not None
                    else 0
                )
            # the chaos kill must have left a flight post-mortem that
            # renders through the ``repro-sim trace`` pipeline
            artifact = os.path.join(
                flight_dir, f"site-{victim}-chaos-kill-site.jsonl"
            )
            if not os.path.exists(artifact):
                print(f"  {protocol}: no flight artifact at {artifact}")
                failures += 1
            else:
                trace = load_trace(artifact)
                if not len(trace) or not render_report(trace):
                    print(f"  {protocol}: flight artifact unrenderable")
                    failures += 1
        status = "ok" if report.errors == 0 else "FAIL"
        if report.errors:
            failures += 1
        print(
            f"  {protocol:<14} {status}  {report.ops} ops, "
            f"{report.errors} errors, {report.failovers} failovers, "
            f"{checks} sanitizer checks, killed s{victim}, revived as "
            f"incarnation {revived.epoch}"
        )
    if failures:
        print(f"smoke: {failures} failure(s)")
        return 1
    print(
        "smoke: all protocols clean (zero violations, zero request "
        "errors, kill -> recover -> reconverge)"
    )
    return 0


async def _stats_smoke(args: argparse.Namespace) -> int:
    """The observability CI gate: an in-process cluster over real TCP
    sockets, exercised end to end —

    1. load through the normal client paths, then ``quiesce()``;
    2. a ``top``-style snapshot must show every site up and the whole
       replication-lag matrix at zero;
    3. the Prometheus endpoint is scraped over HTTP and the body must
       parse as strict text exposition, with the lag gauges at zero and
       the per-origin visibility histograms present;
    4. one site is chaos-killed over the wire; its flight post-mortem
       must exist and render through the ``repro-sim trace`` pipeline.
    """
    import os
    import tempfile

    from repro.obs.export import parse_exposition, serve_metrics
    from repro.obs.jsonl import load_trace
    from repro.obs.timeline import render_report

    failures: List[str] = []
    metrics = MetricsRegistry()
    # mint free ports by binding port 0 (the window between close and
    # listen is benign)
    addresses: Dict[SiteId, str] = {}
    for site in range(args.sites):
        probe = await asyncio.start_server(
            lambda r, w: w.close(), "127.0.0.1", 0
        )
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        addresses[site] = f"127.0.0.1:{port}"
    with tempfile.TemporaryDirectory() as flight_dir:
        cluster = ServiceCluster(
            args.sites,
            args.sites * 2,
            args.protocol,
            transport=TcpTransport(),
            addresses=addresses,
            sanitize=True,
            metrics=metrics,
            seed=args.seed,
            flight_dir=flight_dir,
        )
        async with cluster:
            exporter = await serve_metrics(
                metrics,
                port=0,
                refresh=lambda: [s.refresh_gauges() for s in cluster.servers],
            )
            scrape_port = exporter.sockets[0].getsockname()[1]
            gen = LoadGenerator(
                cluster,
                workload="a",
                ops_per_site=args.ops_per_site,
                seed=args.seed,
                metrics=metrics,
            )
            report = await gen.run()
            await cluster.quiesce()
            if report.errors:
                failures.append(f"{report.errors} load errors")

            # -- top snapshot: everyone up, lag matrix at zero --------
            client = cluster.client(0)
            snap = await _collect_top(client, addresses)
            sites = snap["sites"]
            for sid, s in sites.items():  # type: ignore[union-attr]
                if not s.get("up"):
                    failures.append(f"site {sid} not answering sys.stats")
                elif s["parked"]:
                    failures.append(f"site {sid}: {s['parked']} parked after quiesce")
            for src, row in snap["lag"].items():  # type: ignore[union-attr]
                for dst, link in row.items():
                    if link["unacked"] or link["unapplied"]:
                        failures.append(
                            f"lag {src}->{dst} nonzero after quiesce: {link}"
                        )
            vis = sum(
                h["count"]
                for s in sites.values()  # type: ignore[union-attr]
                if s.get("up")
                for h in s["visibility_ms"].values()
            )
            if vis == 0:
                failures.append("no visibility_latency_ms observations")

            # -- Prometheus scrape: strict parse, gauges at zero ------
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", scrape_port
            )
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            if b"200 OK" not in head.splitlines()[0]:
                failures.append(f"scrape answered {head.splitlines()[0]!r}")
            try:
                samples = parse_exposition(body.decode("utf-8"))
            except ValueError as exc:
                failures.append(f"scrape body failed strict parse: {exc}")
                samples = {}
            if samples:
                if not any(
                    k.startswith("visibility_latency_ms_bucket") for k in samples
                ):
                    failures.append("scrape has no visibility histogram")
                stale = [
                    k
                    for k, v in samples.items()
                    if k.startswith(("link_unacked_count", "link_unapplied_count"))
                    and v != 0
                ]
                if stale:
                    failures.append(f"scrape shows nonzero lag: {stale}")
            exporter.close()
            await exporter.wait_closed()

            # -- chaos kill over the wire -> flight post-mortem -------
            victim = args.sites - 1
            if not await client.kill(victim):
                failures.append(f"kill frame to site {victim} failed")
            artifact = os.path.join(
                flight_dir, f"site-{victim}-chaos-kill-site.jsonl"
            )
            if not os.path.exists(artifact):
                failures.append(f"no flight artifact at {artifact}")
            else:
                trace = load_trace(artifact)
                rendered = render_report(trace)
                if not len(trace) or not rendered:
                    failures.append("flight artifact empty or unrenderable")
                else:
                    print(
                        f"  flight post-mortem: {len(trace)} records, "
                        f"reason={trace.header['flight']['reason']}"
                    )
            await client.close()
    if failures:
        for failure in failures:
            print(f"  FAIL {failure}")
        print(f"stats-smoke: {len(failures)} failure(s)")
        return 1
    print(
        f"stats-smoke: ok ({args.protocol}, {args.sites} TCP sites, "
        f"{report.ops} ops, scrape parsed, lag zero, flight renders)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "serve": _serve,
        "put": _one_shot,
        "get": _one_shot,
        "top": _top,
        "chaos-kill-site": _chaos_kill,
        "recover": _recover,
        "bench": _bench,
        "smoke": _smoke,
        "stats-smoke": _stats_smoke,
    }[args.command]
    try:
        return asyncio.run(handler(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())

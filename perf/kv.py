"""One window of a networked-service workload.

A window is: build a fresh co-hosted ``ServiceCluster`` (one process, one
event-loop thread), warm it up, drive it for a fixed time with perf's own
load generator, let replication settle, then check the outputs.  Client
sessions are coroutines, never threads; in-flight requests never exceed
the number of clients the workload states.

Everything is observed from outside: latencies are timed here around
``KVClient.put`` / ``get`` and kept as raw samples; byte, visibility and
message counts are read from the ``MetricsRegistry`` attached to the
cluster (attached in every run alike) as the difference between a snapshot
taken when the window opens and one taken after it settles.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import socket
import time
from typing import Any, Dict, List, Optional

from repro.errors import ServiceUnavailableError
from repro.obs.export import parse_metric_key
from repro.obs.registry import MetricsRegistry
from repro.service import wire
from repro.service.harness import ServiceCluster
from repro.service.transport import LoopbackTransport, TcpTransport

import spec as S
from tracing import CURRENT_OP, Tracer, TracingTransport, instrument_protocol, instrument_wal

#: the WAL's fsync policy on the durable workload (stated in every report)
FSYNC_POLICY = "group"

#: writes issued at site 0 while the victim is down (``kv-durable-w``)
RECOVERY_GAP_WRITES = 500

#: the site killed and restarted after a durable window
VICTIM = 2


class CorrectnessError(Exception):
    """An output check failed; the workload reports no metrics."""


def free_tcp_addresses(n: int) -> Dict[int, str]:
    """``n`` distinct free 127.0.0.1 ports (bound, read back, released)."""
    socks = []
    try:
        for _ in range(n):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            socks.append(sock)
        return {i: "127.0.0.1:%d" % s.getsockname()[1] for i, s in enumerate(socks)}
    finally:
        for sock in socks:
            sock.close()


class _Ledger:
    """What the load generator writes down while it drives a window."""

    def __init__(self, n_sites: int) -> None:
        self.put: List[float] = []
        self.get: List[float] = []
        self.late: List[float] = []
        self.attempted = 0
        self.errors = 0
        self.remote_gets = 0
        self.pool_exhausted = 0
        #: seconds the generator spent between client calls (its own cost)
        self.gap = 0.0
        self.last_end = 0.0
        #: per origin site: variable -> [writes, highest write sequence]
        self.written: List[Dict[str, List[int]]] = [{} for _ in range(n_sites)]
        self.value_bytes = 0

    def note_write(self, site: int, var: str, seq: int, value: str) -> None:
        slot = self.written[site].get(var)
        if slot is None:
            self.written[site][var] = [1, seq]
        else:
            slot[0] += 1
            if seq > slot[1]:
                slot[1] = seq
        self.value_bytes += len(value)


def _value(var: str, site: int, session: int, n: int, size: int) -> str:
    """A unique, self-describing value: its prefix names the variable and
    origin so a replica's final state can be checked without keeping every
    value written."""
    return f"{var}|{site}.{session}.{n}|".ljust(size, "x")


async def _issue(
    client: Any, site: int, tag: int, n: int, var: str, is_write: bool,
    value_size: int, since: float, request: int,
    ledger: _Ledger, tracer: Optional[Tracer],
) -> float:
    """Issue one operation and write it down; returns when it ended.  Its
    latency counts from ``since`` (issue time on the closed loop, due time
    on the open loop); its span, when tracing, from the actual issue."""
    clock = time.perf_counter
    ledger.attempted += 1
    t0 = clock()
    if tracer is not None:
        span = tracer.next_id()
        CURRENT_OP.set((span, request))
    try:
        if is_write:
            value = _value(var, site, tag, n, value_size)
            wid = await client.put(var, value)
            t1 = clock()
            ledger.put.append(t1 - since)
            ledger.note_write(site, var, wid.seq, value)
        else:
            _, _, by = await client.get(var)
            t1 = clock()
            ledger.get.append(t1 - since)
            if by != site:
                ledger.remote_gets += 1
    except ServiceUnavailableError:
        t1 = clock()
        ledger.errors += 1
    if tracer is not None:
        tracer.add(span, "client.put" if is_write else "client.get", t0, t1, None, request, site)
    if t1 > ledger.last_end:
        ledger.last_end = t1
    return t1


async def _closed_session(
    client: Any, site: int, session: int, kinds: List[bool], keys: List[int],
    variables: List[str], value_size: int, deadline: float, max_ops: int,
    ledger: _Ledger, tracer: Optional[Tracer],
) -> None:
    """One closed-loop session: the next operation is issued only after
    the previous one completed, until the window's deadline."""
    clock = time.perf_counter
    n = len(kinds)
    i = done = 0
    prev_end = clock()
    while done < max_ops:
        t0 = clock()
        if t0 >= deadline:
            break
        ledger.gap += t0 - prev_end
        var = variables[keys[i]]
        is_write = kinds[i]
        i += 1
        if i == n:
            i = 0
        done += 1
        prev_end = await _issue(
            client, site, session, done, var, is_write, value_size, t0,
            session * 10_000_000 + done, ledger, tracer,
        )


async def _open_worker(
    client: Any, site: int, worker: int, cursor: List[int], kinds: List[bool],
    keys: List[int], variables: List[str], value_size: int, t_start: float,
    interval: float, phase: float, deadline: float,
    ledger: _Ledger, tracer: Optional[Tracer],
) -> None:
    """One pooled client of an open-loop site: takes the site's next
    scheduled operation, waits for its due time if it is early, and times
    the operation from when it was *due* — so the wait a busy pool imposes
    on later operations is counted."""
    clock = time.perf_counter
    while True:
        k = cursor[0]
        due = t_start + (k + phase) * interval
        if k >= len(kinds) or due >= deadline:
            return
        cursor[0] = k + 1
        now = clock()
        if now < due:
            await asyncio.sleep(due - now)
        else:
            # no idle client was waiting when this operation fell due
            ledger.pool_exhausted += 1
        ledger.late.append(clock() - due)
        end = await _issue(
            client, site, worker, k, variables[keys[k]], kinds[k], value_size, due,
            site * 10_000_000 + k, ledger, tracer,
        )
        ledger.gap += clock() - end


def _sum(counters: Dict[str, float], prefix: str) -> float:
    return sum(v for k, v in counters.items() if k.startswith(prefix))


async def _site_stats(cluster: ServiceCluster) -> List[Dict[str, Any]]:
    """One ``sys.stats`` snapshot per site, through a fresh public client
    (a pooled connection to a site that was killed since would be dead)."""
    client = cluster.client(home=0)
    try:
        return [await client.stats(site) for site in range(cluster.n)]
    finally:
        await client.close()


async def _check_converged(
    spec: S.KvSpec, cluster: ServiceCluster, ledger: _Ledger
) -> None:
    """Every site applied every update destined to it, exactly once, and
    every replica holds an intact value written to that variable.

    Replicas of a variable may legitimately end on *different* concurrent
    writes (causal memory does not arbitrate them), so the check is on
    what was applied, not on equal final values."""
    stats = await _site_stats(cluster)
    placement = cluster.placement
    for site in range(cluster.n):
        expected_applies = 0
        for origin in range(cluster.n):
            high = 0
            for var, (count, seq) in ledger.written[origin].items():
                # a site's own watermark covers everything it wrote; a
                # remote origin's covers what was destined here
                if origin == site:
                    high = max(high, seq)
                elif site in placement[var]:
                    high = max(high, seq)
                    expected_applies += count
            got = int(stats[site]["origin_applied"].get(str(origin), 0))
            if got != high:
                raise CorrectnessError(
                    f"{spec.name}: site {site} applied origin {origin} up to "
                    f"{got}, expected {high}"
                )
        if stats[site]["applies"] != expected_applies or stats[site]["parked"]:
            raise CorrectnessError(
                f"{spec.name}: site {site} applied {stats[site]['applies']} "
                f"updates ({stats[site]['parked']} parked), expected {expected_applies}"
            )
    for var, replicas in placement.items():
        for site in replicas:
            value, wid = cluster.servers[site].protocol.local_value(var)
            if wid is None:
                continue
            ok = (
                isinstance(value, str)
                and value.startswith(f"{var}|{wid.site}.")
                and len(value) >= spec.value_size
                and wid.seq <= ledger.written[wid.site].get(var, [0, 0])[1]
            )
            if not ok:
                raise CorrectnessError(
                    f"{spec.name}: replica {site} of {var} holds a value "
                    f"no client wrote there: {str(value)[:40]!r} {wid}"
                )


async def _recover(
    spec: S.KvSpec, cluster: ServiceCluster, client: Any, ledger: _Ledger,
    keys: List[int],
) -> Dict[str, float]:
    """Kill a site, write past it, restart it from its WAL, reconverge.

    The restarted site must replay exactly the records its dead
    incarnation appended and then catch up: afterwards every site passes
    the applied-exactly-once check again, and every replica of a variable
    written during the gap holds site 0's last write to it (those writes
    were issued one after another at a site that had applied everything,
    so they causally follow every other write)."""
    appended = cluster.servers[VICTIM].wal.records_appended
    cluster.kill_site(VICTIM)
    gap_vars = set()
    for k in range(RECOVERY_GAP_WRITES):
        var = cluster.variables[keys[k % len(keys)]]
        value = _value(var, 0, 0, 1_000_000 + k, spec.value_size)
        wid = await client.put(var, value)
        ledger.note_write(0, var, wid.seq, value)
        gap_vars.add(var)
    t0 = time.perf_counter()
    revived = await cluster.restart_site(VICTIM)
    t1 = time.perf_counter()
    if revived.wal_replayed != appended:
        raise CorrectnessError(
            f"{spec.name}: restart replayed {revived.wal_replayed} WAL "
            f"records, the dead incarnation had appended {appended}"
        )
    await cluster.quiesce(timeout=30.0)
    t2 = time.perf_counter()
    await _check_converged(spec, cluster, ledger)
    for var in sorted(gap_vars):
        last = ledger.written[0][var][1]
        for site in cluster.placement[var]:
            wid = cluster.servers[site].protocol.local_value(var)[1]
            if wid is None or (wid.site, wid.seq) != (0, last):
                raise CorrectnessError(
                    f"{spec.name}: after restart site {site} holds {wid} for "
                    f"{var}, expected site 0's write {last}"
                )
    return {
        "recovery_s": t2 - t0,
        "replay_us_per_record": (t1 - t0) / max(appended, 1) * 1e6,
        "converge_s": t2 - t1,
    }


def _scripts(spec: S.KvSpec, seed: int, seconds: float, cap: int) -> List[Any]:
    """The pre-generated operations: one script per session (closed loop)
    or one per site, shared by its pooled clients (open loop)."""
    if spec.open_rate is not None:
        count = min(cap, int(seconds * spec.open_rate / spec.sites) + 1)
        return [S.kv_script(spec, seed, site, 0, count) for site in range(spec.sites)]
    per_site = spec.clients_per_site
    budget = min(-(-cap // per_site), S.closed_loop_budget(spec, seconds))
    return [
        S.kv_script(spec, seed, site, k, budget)
        for site in range(spec.sites) for k in range(per_site)
    ]


async def _warm_up(
    spec: S.KvSpec, cluster: ServiceCluster, clients: List[Any], ledger: _Ledger
) -> None:
    """Connect and hello-negotiate every (client, site) pair, then write
    every variable once from every site so that each peer link a put or a
    remote fetch will use has completed its handshake."""
    per_site = spec.clients_per_site
    for site in range(spec.sites):
        for _ in range(per_site):
            client = cluster.client(home=site)
            clients.append(client)
            for target in range(spec.sites):
                if not await client.ping(target):
                    raise CorrectnessError(f"{spec.name}: site {target} did not answer ping")
    for site in range(spec.sites):
        for var in cluster.variables:
            value = _value(var, site, 0, 0, spec.value_size)
            wid = await clients[site * per_site].put(var, value)
            ledger.note_write(site, var, wid.seq, value)
    await cluster.quiesce(timeout=30.0)


async def _drive(
    spec: S.KvSpec, cluster: ServiceCluster, clients: List[Any], scripts: List[Any],
    seconds: float, cap: int, ledger: _Ledger, tracer: Optional[Tracer],
) -> float:
    """Run every session to the window's deadline; returns the measured
    seconds (first issue to last completion)."""
    per_site = spec.clients_per_site
    variables = cluster.variables
    t0 = time.perf_counter()
    deadline = t0 + seconds
    if spec.open_rate is None:
        session_cap = -(-cap // per_site)
        await asyncio.gather(*(
            _closed_session(
                client, i // per_site, i, scripts[i][0], scripts[i][1],
                variables, spec.value_size, deadline, session_cap, ledger, tracer,
            )
            for i, client in enumerate(clients)
        ))
        return ledger.last_end - t0
    interval = spec.sites / spec.open_rate
    tasks = []
    for site in range(spec.sites):
        kinds, keys = scripts[site]
        cursor = [0]
        for worker in range(per_site):
            tasks.append(_open_worker(
                clients[site * per_site + worker], site, worker, cursor, kinds, keys,
                variables, spec.value_size, t0, interval, site / spec.sites,
                deadline, ledger, tracer,
            ))
    await asyncio.gather(*tasks)
    # the offered schedule spans the whole window; a backlog that outlives
    # it stretches the window instead of hiding
    return max(ledger.last_end - t0, min(seconds, len(scripts[0][0]) * interval))


async def window(
    spec: S.KvSpec,
    seed: int,
    seconds: float,
    scratch: str,
    *,
    tracer: Optional[Tracer] = None,
    sanitize: bool = False,
    max_ops_per_site: Optional[int] = None,
    recover: bool = True,
    set_up_only: bool = False,
) -> Dict[str, Any]:
    """Run one window; returns its raw measurements (see :mod:`report`).

    ``sanitize`` runs the cluster under the causal sanitizer (the
    correctness pass); ``max_ops_per_site`` bounds the window by
    operation count as well as by time; ``set_up_only`` stops once the
    cluster is built and warm and returns just ``setup_s`` (a run sets up
    more often than it measures, to steady that metric)."""
    gc.collect()  # the previous window's garbage is not this one's set-up cost
    t_setup = time.perf_counter()
    registry = MetricsRegistry()
    real = TcpTransport(metrics=registry) if spec.tcp else LoopbackTransport(metrics=registry)
    kwargs: Dict[str, Any] = {}
    if spec.tcp:
        kwargs["addresses"] = free_tcp_addresses(spec.sites)
    data_dir = None
    if spec.durable:
        data_dir = os.path.join(scratch, f"wal-{os.getpid()}-{time.monotonic_ns()}")
        kwargs.update(data_dir=data_dir, fsync=FSYNC_POLICY)
    cluster = ServiceCluster(
        spec.sites, spec.variables, spec.protocol,
        replication_factor=spec.replication_factor,
        transport=real if tracer is None else TracingTransport(real, tracer),
        metrics=registry, seed=S.CLUSTER_SEED, codec="delta", sanitize=sanitize,
        **kwargs,
    )
    cap = max_ops_per_site if max_ops_per_site is not None else 1 << 60
    clients: List[Any] = []
    ledger = _Ledger(spec.sites)
    try:
        await cluster.start()
        scripts = _scripts(spec, seed, seconds, cap)
        await _warm_up(spec, cluster, clients, ledger)
        if tracer is not None:
            for server in cluster.servers:
                instrument_protocol(server.protocol, tracer)
                if server.wal is not None:
                    instrument_wal(server.wal, tracer, int(server.site))
        warm_value_bytes = ledger.value_bytes
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - t_setup
        if set_up_only:
            gc.unfreeze()
            return {"setup_s": setup_s}

        base = registry.snapshot()
        wal_base = _wal_counters(cluster)
        if tracer is not None:
            tracer.enabled = True
        cpu0 = time.process_time()
        elapsed = await _drive(spec, cluster, clients, scripts, seconds, cap, ledger, tracer)
        cpu_s = time.process_time() - cpu0
        t_quiesce = time.perf_counter()
        await cluster.quiesce(timeout=30.0)
        quiesce_s = time.perf_counter() - t_quiesce
        if tracer is not None:
            tracer.enabled = False
        gc.unfreeze()
        delta = registry.diff(base)
        wal = {k: v - wal_base[k] for k, v in _wal_counters(cluster).items()}
        value_bytes = ledger.value_bytes - warm_value_bytes

        if sanitize and cluster.sanitizer.first_violation is not None:
            raise CorrectnessError(f"{spec.name}: {cluster.sanitizer.first_violation}")
        if ledger.errors:
            raise CorrectnessError(f"{spec.name}: {ledger.errors} operations failed")
        await _check_converged(spec, cluster, ledger)
        recovery: Dict[str, float] = {}
        if spec.durable and recover:
            recovery = await _recover(spec, cluster, clients[0], ledger, scripts[0][1])
        failovers = sum(c.failovers for c in clients)
    finally:
        for client in clients:
            await client.close()
        await cluster.stop()
        if isinstance(real, LoopbackTransport):
            await real.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)

    counters = delta["counters"]
    ops = len(ledger.put) + len(ledger.get)
    vis_total = vis_count = 0.0
    for key, hist in delta["histograms"].items():
        if key.startswith("visibility_latency_ms"):
            vis_total += hist["total"]
            vis_count += hist["count"]
    stale = _sum(counters, "service_stale_replies_total")
    applies = _sum(counters, "service_applies_total")
    by_kind: Dict[str, float] = {}
    for key, value in counters.items():
        if key.startswith("wire_frame_bytes_total"):
            kind = parse_metric_key(key)[1].get("kind", "?")
            by_kind[kind] = by_kind.get(kind, 0) + value
    return {
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "ops": ops,
        "attempted": ledger.attempted,
        "errors": ledger.errors,
        "put": sorted(ledger.put),
        "get": sorted(ledger.get),
        "late": sorted(ledger.late),
        "visibility_ms": vis_total / vis_count if vis_count else None,
        "visibility_n": int(vis_count),
        "wire_bytes": _sum(counters, "wire_bytes_sent_total"),
        # Table-I message count: one update per remote replica per write,
        # a request and a reply per remote fetch (acks are transport-level)
        "messages": applies + 2 * (ledger.remote_gets + stale),
        "remote_gets": ledger.remote_gets,
        "stale_replies": stale,
        "read_timeouts": _sum(counters, "service_read_timeouts_total"),
        "failovers": failovers,
        "pool_exhausted": ledger.pool_exhausted,
        "loadgen_s": ledger.gap,
        "quiesce_s": quiesce_s,
        "bytes_by_kind": by_kind,
        "value_bytes": value_bytes,
        "wal": wal,
        "recovery": recovery,
        "intern_names": wire.intern_table_names(cluster.placement),
    }


def _wal_counters(cluster: ServiceCluster) -> Dict[str, int]:
    """Σ over sites of ``SiteWal``'s public counters (zeros without a WAL)."""
    out = {"records": 0, "bytes": 0, "raw": 0, "fsyncs": 0}
    for server in cluster.servers:
        wal = server.wal
        if wal is not None:
            out["records"] += wal.records_appended
            out["bytes"] += wal.bytes_appended
            out["raw"] += wal.raw_appends
            out["fsyncs"] += wal.fsyncs
    return out

"""What the benchmark runs and reports: workloads, metrics, input generators.

This module is the single in-code statement of the benchmark's shape;
``BENCHMARK.json`` at the repository root declares the same workload and
metric names for the driver, and ``test_perf_smoke.py`` asserts the two
agree.  Inputs are generated *here*, from ``--seed``: the program under
test (``repro``) only ever receives the generated operations, never the
seed.  Cluster-internal seeds (placement, backoff jitter, simulated
network jitter) are the constants below and do not vary with ``--seed``.

The generators are low-discrepancy on purpose: the read/write mix is exact
inside every block of :data:`MIX_BLOCK` operations, and the simulator
workloads draw keys as shuffled full passes over the variable set.  A
different seed therefore changes the *order* of operations (and with it
every causal interleaving) but not the mix, which keeps the per-operation
counts (``msgs_per_op``, ``wire_bytes_per_op``) comparable across seeds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.store.placement import default_variables
from repro.types import Operation

#: length of one measured run in seconds (``BENCHMARK.json`` ``run_seconds``);
#: a run is :data:`WINDOWS` windows of ``RUN_SECONDS / WINDOWS`` seconds each
RUN_SECONDS = 15
WINDOWS = 3

#: service workloads set up this many more clusters than they measure:
#: a set-up lasts 50-200 ms, too short to average the box's speed swings,
#: so ``setup_s`` is the median of WINDOWS + EXTRA_SETUPS set-ups
EXTRA_SETUPS = 4

#: run length of a ``--fast`` smoke run (one window, numbers not judged)
FAST_SECONDS = 0.9

#: offered rate of the open-loop workload, ops/s.  Frozen at about half of
#: what the open loop itself can sustain on the 2-core reference box
#: (1e6 / its ``server.cpu_us_per_op`` is 2.3-2.9 k ops/s; the closed-loop
#: ``kv-partial-meta`` median is 3.1-3.5 k).  At 0.5 x the closed-loop
#: median (1700) the loop sits at 60-75 % CPU there, on the steep part of
#: the latency curve, and ``get_p90_ms`` swings 30 % from run to run.
OPEN_LOOP_RATE = 1200

#: seed of every ServiceCluster / simulator Cluster (placement, jitter);
#: constant so ``--seed`` reaches the program only through its inputs
CLUSTER_SEED = 11
SIM_CLUSTER_SEED = 3

#: the read/write mix is exact within each block of this many operations
MIX_BLOCK = 20

#: YCSB's default request-popularity skew
ZIPF_S = 0.99

#: pre-generated operations per closed-loop session are sized for this
#: cluster-wide rate (ops/s), several times today's throughput; a session
#: that outruns its script wraps around rather than failing
SCRIPT_RATE_CEILING = 24_000


@dataclass(frozen=True)
class KvSpec:
    """One networked-service workload (a co-hosted ``ServiceCluster``)."""

    name: str
    why: str
    sites: int
    variables: int
    protocol: str
    replication_factor: int
    value_size: int
    tcp: bool
    #: closed loop: sessions per site; open loop: pooled clients per site
    clients_per_site: int
    #: writes per hundred operations
    write_pct: int
    durable: bool = False
    #: offered ops/s across the cluster; ``None`` = closed loop
    open_rate: Optional[int] = None
    #: operations per site in the sanitized correctness pass
    gate_ops_per_site: int = 300

    kind = "kv"


@dataclass(frozen=True)
class SimSpec:
    """One simulator workload (repeated ``Cluster.run`` rounds)."""

    name: str
    why: str
    sites: int
    variables: int
    protocol: str
    replication_factor: Optional[int]
    write_pct: int
    #: operations per site in one round; a window is as many identical
    #: rounds (fresh Cluster, same inputs) as fit its length
    ops_per_site: int
    think_time: float
    #: ``(low, high, jitter_sigma)`` of the per-pair WAN latency matrix —
    #: topology, so drawn from :data:`SIM_CLUSTER_SEED`, not ``--seed`` —
    #: or ``None`` for the simulator's default 1 ms constant latency
    wan: Optional[Tuple[float, float, float]] = None
    gate_ops_per_site: int = 60

    kind = "sim"


WORKLOADS = (
    KvSpec(
        name="kv-full-4k-tcp",
        why="payload-bound: 4 sites, full replication (opt-track-crp), YCSB-A, 4 KB "
        "values over real 127.0.0.1 sockets; transport and frame codec dominate",
        sites=4, variables=12, protocol="opt-track-crp", replication_factor=4,
        value_size=4096, tcp=True, clients_per_site=1, write_pct=50,
    ),
    KvSpec(
        name="kv-partial-meta",
        why="metadata-bound: 8 sites, rf 3 (opt-track), zero-byte values on loopback, "
        "2 closed-loop sessions per site; dep logs, delta codec and remote fetches dominate",
        sites=8, variables=24, protocol="opt-track", replication_factor=3,
        value_size=0, tcp=False, clients_per_site=2, write_pct=50,
    ),
    KvSpec(
        name="kv-partial-open",
        why="same cluster as kv-partial-meta driven open loop at a fixed rate; the only "
        "workload whose latency is measured at a load that does not shrink when it slows",
        sites=8, variables=24, protocol="opt-track", replication_factor=3,
        value_size=0, tcp=False, clients_per_site=4, write_pct=50,
        open_rate=OPEN_LOOP_RATE,
    ),
    KvSpec(
        name="kv-durable-w",
        why="durability-bound: 3 sites, full replication, 90/10 write/read, 1 KB values, "
        "WAL on with group fsync, then kill/restart/reconverge; WAL work is absent elsewhere",
        sites=3, variables=12, protocol="opt-track", replication_factor=3,
        value_size=1024, tcp=False, clients_per_site=1, write_pct=90, durable=True,
    ),
    SimSpec(
        name="sim-shallow",
        why="no service code: simulator engine plus DepLog on the n=20 q=100 p=3 "
        "opt-track reference run, pending depth <= 1; Table-I counts repeat exactly",
        sites=20, variables=100, protocol="opt-track", replication_factor=3,
        write_pct=40, ops_per_site=500, think_time=1.0,
    ),
    SimSpec(
        name="sim-deep",
        why="same simulator used the other way: n=16 optp full replication over a 0.5-400 ms "
        "WAN at 80% writes, pending buffers ~60 deep, numpy clocks instead of DepLog",
        sites=16, variables=60, protocol="optp", replication_factor=None,
        write_pct=80, ops_per_site=300, think_time=0.1, wan=(0.5, 400.0, 0.3),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: end-to-end metrics: name -> (unit, better, regression bound).  The
#: bound is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression.  Everything timed sits
#: at the widest bound allowed: the reference box's speed itself swings
#: 5-12 % (quartile distance over the median) between identical runs, a
#: fixed CPU loop included, and a bound is only honest at about three
#: times that.  The counted metrics repeat to about one percent across
#: seeds (time-bounded windows end on different operations).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "put_p50_ms": ("ms", "lower", 0.25),
    "put_p90_ms": ("ms", "lower", 0.25),
    "get_p50_ms": ("ms", "lower", 0.25),
    "get_p90_ms": ("ms", "lower", 0.25),
    "visibility_mean_ms": ("ms", "lower", 0.25),
    "wire_bytes_per_op": ("B", "lower", 0.05),
    "msgs_per_op": ("count", "lower", 0.05),
    "rss_peak_mb": ("MB", "lower", 0.25),
}

#: per-layer metrics: name -> (unit, better).  No bounds: they explain an
#: end-to-end change, they do not gate one.  ``0`` in a run's output means
#: the layer is not exercised by that workload (no WAL, no sockets, no sim)
#: or the percentile was refused for too few samples.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "loadgen.us_per_op": ("us", "lower"),
    "loadgen.late_p50_ms": ("ms", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.pool_exhausted_frac": ("frac", "lower"),
    "loadgen.trace_overhead_frac": ("frac", "lower"),
    "client.us_per_op": ("us", "lower"),
    "client.put_p99_ms": ("ms", "lower"),
    "client.get_p99_ms": ("ms", "lower"),
    "client.get_p999_ms": ("ms", "lower"),
    "client.failovers_per_kop": ("count", "lower"),
    "client.remote_get_frac": ("frac", "lower"),
    "client.error_frac": ("frac", "lower"),
    "transport.send_us_per_op": ("us", "lower"),
    "transport.frames_per_op": ("count", "lower"),
    "transport.sends_per_op": ("count", "lower"),
    "transport.frames_per_send": ("count", "higher"),
    "transport.bytes_per_op": ("B", "lower"),
    "transport.echo_us.loopback": ("us", "lower"),
    "transport.echo_us.tcp": ("us", "lower"),
    "wire.encode_us_per_frame": ("us", "lower"),
    "wire.decode_us_per_frame": ("us", "lower"),
    "wire.encode_us_per_op": ("us", "lower"),
    "wire.decode_us_per_op": ("us", "lower"),
    "wire.update_encode_us": ("us", "lower"),
    "wire.update_decode_us": ("us", "lower"),
    "wire.update_us_per_op": ("us", "lower"),
    "wire.repl_bytes_per_frame": ("B", "lower"),
    "wire.meta_bytes_per_repl": ("B", "lower"),
    "wire.repl_byte_frac": ("frac", "lower"),
    "core.write_us": ("us", "lower"),
    "core.apply_us": ("us", "lower"),
    "core.can_apply_us": ("us", "lower"),
    "core.read_us": ("us", "lower"),
    "core.fetch_serve_us": ("us", "lower"),
    "core.remote_read_us": ("us", "lower"),
    "core.us_per_op": ("us", "lower"),
    "core.applies_per_op": ("count", "lower"),
    "core.can_apply_per_apply": ("count", "lower"),
    "core.write_micro_us": ("us", "lower"),
    "core.apply_micro_us": ("us", "lower"),
    "deplog.multicast_copies_us": ("us", "lower"),
    "deplog.absorb_us": ("us", "lower"),
    "deplog.retire_us": ("us", "lower"),
    "deplog.copy_for_dest_us": ("us", "lower"),
    "durability.append_us": ("us", "lower"),
    "durability.append_us_per_op": ("us", "lower"),
    "durability.records_per_op": ("count", "lower"),
    "durability.bytes_per_op": ("B", "lower"),
    "durability.write_amp": ("ratio", "lower"),
    "durability.fsyncs_per_kop": ("count", "lower"),
    "durability.raw_append_frac": ("frac", "higher"),
    "durability.recovery_s": ("s", "lower"),
    "durability.replay_us_per_record": ("us", "lower"),
    "durability.converge_s": ("s", "lower"),
    "durability.append_micro_us": ("us", "lower"),
    "durability.sync_micro_ms": ("ms", "lower"),
    "server.residual_us_per_op": ("us", "lower"),
    "server.residual_frac": ("frac", "lower"),
    "server.idle_us_per_op": ("us", "lower"),
    "server.cpu_us_per_op": ("us", "lower"),
    "server.stale_replies_per_kget": ("count", "lower"),
    "server.read_timeouts": ("count", "lower"),
    "server.quiesce_s": ("s", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.residual_us_per_op": ("us", "lower"),
    "sim.activation_delay_mean_ms": ("ms", "lower"),
}


def _rng(seed: int, name: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *stream])


def _mixed_kinds(rng: np.random.Generator, count: int, write_pct: int) -> np.ndarray:
    """``count`` booleans (True = write) whose write share is exactly
    ``write_pct`` inside every :data:`MIX_BLOCK`-long block."""
    writes = MIX_BLOCK * write_pct // 100
    block = np.zeros(MIX_BLOCK, dtype=bool)
    block[:writes] = True
    blocks = np.tile(block, (count // MIX_BLOCK + 1, 1))
    return rng.permuted(blocks, axis=1).ravel()[:count]


def kv_script(
    spec: KvSpec, seed: int, site: int, session: int, count: int
) -> Tuple[List[bool], List[int]]:
    """One client's pre-generated operations: parallel lists of
    ``is_write`` flags and variable indices (zipf-popular, YCSB style).
    Values are built at issue time from the operation counter."""
    rng = _rng(seed, spec.name, site, session)
    kinds = _mixed_kinds(rng, count, spec.write_pct)
    pmf = np.arange(1, spec.variables + 1, dtype=float) ** -ZIPF_S
    cum = np.cumsum(pmf / pmf.sum())
    keys = np.minimum(np.searchsorted(cum, rng.random(count)), spec.variables - 1)
    return kinds.tolist(), keys.tolist()


def closed_loop_budget(spec: KvSpec, seconds: float) -> int:
    """Operations to pre-generate per closed-loop session."""
    sessions = spec.sites * spec.clients_per_site
    return int(SCRIPT_RATE_CEILING * seconds / sessions) + MIX_BLOCK


def sim_inputs(spec: SimSpec, seed: int, ops_per_site: int):
    """The simulator's inputs: one generated operation script per site
    and, for WAN workloads, the cluster's per-pair base-latency matrix."""
    variables = default_variables(spec.variables)
    q = len(variables)
    scripts = []
    for site in range(spec.sites):
        rng = _rng(seed, spec.name, site)
        kinds = _mixed_kinds(rng, ops_per_site, spec.write_pct)
        passes = ops_per_site // q + 1
        # shuffled full passes over the key set, one stream per op kind
        wkeys = iter(np.concatenate([rng.permutation(q) for _ in range(passes)]).tolist())
        rkeys = iter(np.concatenate([rng.permutation(q) for _ in range(passes)]).tolist())
        ops = []
        counter = 0
        for is_write in kinds.tolist():
            if is_write:
                counter += 1
                ops.append(Operation.write(variables[next(wkeys)], f"v{site}.{counter}"))
            else:
                ops.append(Operation.read(variables[next(rkeys)]))
        scripts.append(ops)
    latency = None
    if spec.wan is not None:
        low, high, _ = spec.wan
        latency = _rng(SIM_CLUSTER_SEED, spec.name).uniform(
            low, high, size=(spec.sites, spec.sites)
        )
        np.fill_diagonal(latency, 0.0)
    return scripts, latency

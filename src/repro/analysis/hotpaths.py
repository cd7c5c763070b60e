"""Hot-path micro/macro benchmarks for the protocol fast paths.

Two layers of measurement, matching the two layers of the optimization
work (docs/performance.md):

* **macro** — the docs reference run (n=20, q=100, p=3, opt-track,
  5 000 ops, write rate 0.4; pending buffers <= 1 deep) and the
  deep-buffer run (n=16 optp over a slow WAN, buffers ~60 deep):
  end-to-end throughput of the whole simulator in both drain regimes;
* **micro** — the individual ``DepLog`` operations the write/read/apply
  paths lean on (per-destination pruned copies, the read-path ``absorb``,
  the write-path ``retire``), and the :class:`VectorClock` operations the
  vector-clock protocols lean on, each beside the numpy spelling it
  replaced.

``python -m repro.cli bench`` (or ``make bench``) regenerates
``BENCH_hot_paths.json`` from these.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core import bitsets
from repro.core.clocks import VectorClock
from repro.core.log import DepLog
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workload.generator import WorkloadConfig, generate

#: the docs/performance.md reference configuration
REFERENCE = dict(n=20, q=100, p=3, ops_per_site=250, write_rate=0.4)

#: the deep-buffer reference: full replication (optp) over a slow, widely
#: spread WAN at a high write rate — pending buffers run ~60 deep (vs. <=1
#: on the shallow reference), the regime the wake index exists for
DEEP_REFERENCE = dict(n=16, q=60, ops_per_site=200, write_rate=0.8)


def reference_run(
    seed: int = 3,
    *,
    n: int = 20,
    q: int = 100,
    p: int = 3,
    ops_per_site: int = 250,
    write_rate: float = 0.4,
) -> Dict[str, Any]:
    """One wall-clock-timed reference run; returns throughput figures."""
    cfg = ClusterConfig(
        n_sites=n,
        n_variables=q,
        protocol="opt-track",
        replication_factor=p,
        seed=seed,
        record_history=False,
        space_probe_every=None,
    )
    cluster = Cluster(cfg)
    workload = generate(
        WorkloadConfig(
            n_sites=n,
            ops_per_site=ops_per_site,
            write_rate=write_rate,
            placement=cluster.placement,
            seed=seed + 1,
        )
    )
    t0 = time.perf_counter()
    result = cluster.run(workload, check=False)
    wall = time.perf_counter() - t0
    n_ops = sum(result.metrics.ops.values())
    return {
        "ops": n_ops,
        "wall_s": wall,
        "ops_per_s": n_ops / wall,
        "messages": result.metrics.total_messages,
    }


def deep_reference_run(
    seed: int = 3,
    *,
    n: int = 16,
    q: int = 60,
    ops_per_site: int = 200,
    write_rate: float = 0.8,
) -> Dict[str, Any]:
    """One timed deep-buffer run (slow-WAN optp); throughput figures."""
    from repro.sim.latency import MatrixLatency

    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 400.0, size=(n, n))
    np.fill_diagonal(base, 0.0)
    cfg = ClusterConfig(
        n_sites=n,
        n_variables=q,
        protocol="optp",
        latency=MatrixLatency(base, jitter_sigma=0.3),
        seed=seed,
        think_time=0.1,
        record_history=False,
        space_probe_every=None,
    )
    cluster = Cluster(cfg)
    workload = generate(
        WorkloadConfig(
            n_sites=n,
            ops_per_site=ops_per_site,
            write_rate=write_rate,
            placement=cluster.placement,
            seed=seed + 1,
        )
    )
    t0 = time.perf_counter()
    result = cluster.run(workload, check=False)
    wall = time.perf_counter() - t0
    n_ops = sum(result.metrics.ops.values())
    return {
        "ops": n_ops,
        "wall_s": wall,
        "ops_per_s": n_ops / wall,
        "messages": result.metrics.total_messages,
    }


def _sample_log(n: int, records_per_sender: int, seed: int) -> DepLog:
    """A dependency log shaped like the steady state of the reference
    run: a handful of live records per sender, each naming a few
    destinations, newest record per sender retained."""
    rng = np.random.default_rng(seed)
    log = DepLog()
    for sender in range(n):
        base = int(rng.integers(1, 50))
        for k in range(records_per_sender):
            dests = bitsets.EMPTY
            for d in rng.choice(n, size=3, replace=False):
                dests = bitsets.add(dests, int(d))
            log.add(sender, base + k, dests)
    return log


def _timeit(fn, *, repeat: int, inner: int) -> float:
    """Best-of-``repeat`` mean microseconds per call over ``inner`` calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / inner * 1e6


def bench_deplog(
    n: int = 20, records_per_sender: int = 4, seed: int = 7, inner: int = 2000
) -> Dict[str, float]:
    """Micro-times (usec/op) for the hot ``DepLog`` operations."""
    log = _sample_log(n, records_per_sender, seed)
    dests = [d for d in range(n) if d != 0]
    mask = bitsets.EMPTY
    for d in dests[: n // 2]:
        mask = bitsets.add(mask, d)
    incoming = _sample_log(n, records_per_sender, seed + 1)

    def do_multicast():
        for _ in log.multicast_copies(dests, mask):
            pass

    def do_copy_for_dest():
        log.copy_for_dest(dests[0], mask)

    def do_absorb():
        log.copy().absorb(incoming)

    def do_retire():
        log.copy().retire(mask)

    def do_merge_purge():  # the unfused legacy pair, for comparison
        c = log.copy()
        c.merge(incoming)
        c.purge()

    return {
        "records": len(log.entries),
        "multicast_copies_usec": _timeit(do_multicast, repeat=5, inner=inner),
        "copy_for_dest_usec": _timeit(do_copy_for_dest, repeat=5, inner=inner),
        "absorb_usec": _timeit(do_absorb, repeat=5, inner=inner),
        "merge_purge_usec": _timeit(do_merge_purge, repeat=5, inner=inner),
        "retire_usec": _timeit(do_retire, repeat=5, inner=inner),
    }


def _clock_vectors(n: int, seed: int = 7) -> list[Tuple[list[int], list[int], int]]:
    """The fixed ``(apply, stamp, sender)`` set the clock operations are
    checked on: the activation case first (stamp one ahead in the sender's
    slot only — also the pair that is timed), then equal vectors, a stamp
    two ahead, several slots short, and a stamp wholly behind."""
    rng = np.random.default_rng([seed, n])
    apply = [int(x) for x in rng.integers(0, 300, size=n)]
    j = n // 2

    def ahead(slots: Tuple[int, ...], by: int) -> list[int]:
        return [x + by if k in slots else x for k, x in enumerate(apply)]

    return [
        (apply, ahead((j,), 1), j),
        (apply, list(apply), j),
        (apply, ahead((j,), 2), j),
        (apply, ahead((0, j, n - 1), 1), j),
        (ahead(tuple(range(n)), 3), list(apply), 0),
    ]


def _clock_ops_agree(n: int, av: list[int], wv: list[int], j: int) -> bool:
    """Every :class:`VectorClock` operation against its numpy spelling."""
    a, w = VectorClock(n, av), VectorClock(n, wv)
    na, nw = np.array(av, dtype=np.int64), np.array(wv, dtype=np.int64)
    merged = a.copy()
    merged.merge(w)
    return (
        (a <= w) == bool(np.all(na <= nw))
        and a.dominates(w) == bool(np.all(na >= nw))
        and a.admits(w, j)
        == bool(na[j] == nw[j] - 1 and np.count_nonzero(na < nw) == 1)
        and a.short_slots(w) == np.nonzero(na < nw)[0].tolist()
        and merged.v == tuple(np.maximum(na, nw).tolist())
        and a.frozen_copy().v == tuple(av)
    )


def bench_clocks(
    sizes: Tuple[int, ...] = (5, 16, 40), inner: int = 20000, repeat: int = 5
) -> Dict[str, Any]:
    """Micro-times of the :class:`VectorClock` operations beside the numpy
    spelling each replaced, at each vector width: usec/op as ``[median,
    min, max]`` over ``repeat`` timings of ``inner`` calls.  Both sides run
    under one Python frame — the clock's method, a lambda standing in for
    the method that used to hold the numpy call.  ``agree`` is the counted
    part: on every pair of :func:`_clock_vectors`, each operation returns
    what numpy returns."""
    out: Dict[str, Any] = {"agree": True}
    for n in sizes:
        vectors = _clock_vectors(n)
        if not all(_clock_ops_agree(n, *case) for case in vectors):
            out["agree"] = False
        av, wv, j = vectors[0]
        a, w = VectorClock(n, av), VectorClock(n, wv)
        na, nw = np.array(av, dtype=np.int64), np.array(wv, dtype=np.int64)
        into, ninto = a.copy(), na.copy()
        pairs: Dict[str, Tuple[Callable[[], Any], Callable[[], Any]]] = {
            "compare": (partial(a.__le__, w), lambda: bool(np.all(na <= nw))),
            "one_short": (
                partial(a.admits, w, j),
                lambda: na[j] == nw[j] - 1
                and int(np.count_nonzero(na < nw)) == 1,
            ),
            "short_slots": (
                partial(a.short_slots, w),
                lambda: np.nonzero(na < nw)[0],
            ),
            "merge": (
                partial(into.merge, w),
                lambda: np.maximum(ninto, nw, out=ninto),
            ),
            "snapshot": (
                a.frozen_copy,
                lambda: na.copy().setflags(write=False),
            ),
        }
        out[f"n={n}"] = {
            name: {
                "clock_usec": _spread(clock_op, repeat=repeat, inner=inner),
                "numpy_usec": _spread(numpy_op, repeat=repeat, inner=inner),
            }
            for name, (clock_op, numpy_op) in pairs.items()
        }
    return out


def _spread(fn: Callable[[], Any], *, repeat: int, inner: int) -> list[float]:
    """``[median, min, max]`` microseconds per call over ``repeat`` timings
    of ``inner`` calls each."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner * 1e6)
    return [statistics.median(times), min(times), max(times)]


#: tracing-disabled vs. attached-no-op budget, in Python calls (counted
#: under ``sys.setprofile``, so the verdict is the same on every run): an
#: attached :class:`~repro.obs.recorder.NullRecorder` must leave the
#: observation seam ``None`` and so stay within this fraction of the
#: untraced run's calls (``make bench`` and the bench smoke test fail past
#: it).  Attaching adds a constant handful of calls (one on the fast
#: reference run); an emit that fires per event adds thousands.
NOOP_CALL_BUDGET = 0.001

#: the always-on flight ring's budget, in calls like the no-op one: an
#: attached :class:`~repro.obs.flight.FlightRecorder` (bounded deque of
#: cheap tuples, ``needs_reasons`` off) may add at most this fraction to
#: the untraced run's calls — the rail that keeps "every service site
#: records its black box unconditionally" an acceptable default.  The
#: ring makes one handler call and one append per event: +6.9 % on the
#: fast reference run, +5.9 % on the full one.  A ring that records
#: every event twice reads ≈ +14 % and fails, and so do the regressions
#: the rail exists to catch (prune pre-image snapshots without the
#: ``needs_reasons`` gate, dict records materialised in the hooks).
#: Judged on wall time this verdict flipped between runs on a shared
#: machine (9.5-35 % against a 20 % budget).
FLIGHT_CALL_BUDGET = 0.10


def _reference_cluster(
    recorder_mode: str, seed: int, ref: Dict[str, Any]
) -> Tuple[Cluster, Any]:
    """The reference run's cluster and workload under a tracing mode:
    ``disabled`` (nothing attached, the default), ``noop`` (an attached
    :class:`NullRecorder`, which the seam leaves out), ``flight`` (an
    attached bounded
    :class:`~repro.obs.flight.FlightRecorder` ring — the service layer's
    always-on crash recorder) or ``enabled`` (an in-memory
    :class:`TraceRecorder`)."""
    from repro.obs.flight import FlightRecorder
    from repro.obs.recorder import NullRecorder, TraceRecorder

    cfg = ClusterConfig(
        n_sites=ref["n"],
        n_variables=ref["q"],
        protocol="opt-track",
        replication_factor=ref["p"],
        seed=seed,
        record_history=False,
        space_probe_every=None,
    )
    cluster = Cluster(cfg)
    if recorder_mode == "noop":
        cluster.recorder = NullRecorder()
    elif recorder_mode == "flight":
        cluster.recorder = FlightRecorder()
    elif recorder_mode == "enabled":
        cluster.recorder = TraceRecorder()
    cluster.attach_observers()
    workload = generate(
        WorkloadConfig(
            n_sites=ref["n"],
            ops_per_site=ref["ops_per_site"],
            write_rate=ref["write_rate"],
            placement=cluster.placement,
            seed=seed + 1,
        )
    )
    return cluster, workload


def _timed_reference_run(
    recorder_mode: str, seed: int, ref: Dict[str, Any]
) -> float:
    """Wall seconds for one reference run under a tracing mode."""
    cluster, workload = _reference_cluster(recorder_mode, seed, ref)
    t0 = time.perf_counter()
    cluster.run(workload, check=False)
    return time.perf_counter() - t0


def _counted_reference_run(
    recorder_mode: str, seed: int, ref: Dict[str, Any]
) -> int:
    """Python and C calls made by one reference run under a tracing
    mode, counted with ``sys.setprofile``.  Deterministic for a warm
    process; the first run in a process also counts first-use imports
    and caches, so warm up before comparing."""
    cluster, workload = _reference_cluster(recorder_mode, seed, ref)
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        cluster.run(workload, check=False)
    finally:
        sys.setprofile(None)
    return calls


def bench_trace_overhead(
    fast: bool = False, seed: int = 3, repeat: int = 3
) -> Dict[str, Any]:
    """The tracing cost ledger: disabled vs. no-op vs. flight ring vs.
    enabled recorder.

    Best-of-``repeat`` wall times (minimum — robust against scheduler
    noise) for the reference run in each mode, and the calls the
    disabled, no-op and flight runs make.  ``noop_within_budget`` and
    ``flight_within_budget`` are the guardrails ``make bench`` enforces,
    both judged on the counts: an attached-but-silent recorder may add
    at most :data:`NOOP_CALL_BUDGET` to the ``recorder = None`` fast
    path's calls, the flight ring :data:`FLIGHT_CALL_BUDGET`.  A
    wall-time verdict on these short runs swings past a few percent
    between identical invocations; a call count does not move."""
    ref: Dict[str, Any] = dict(REFERENCE)
    if fast:
        ref["ops_per_site"] = 50
    modes = ("disabled", "noop", "flight", "enabled")
    # interleave the repeats round-robin rather than timing each mode in
    # a contiguous block: slow machine drift (CI neighbours, thermal
    # throttling) then lands on every mode instead of biasing whichever
    # mode happened to run last
    walls: Dict[str, float] = {mode: float("inf") for mode in modes}
    for _ in range(repeat):
        for mode in modes:
            walls[mode] = min(walls[mode], _timed_reference_run(mode, seed, ref))
    # the timed runs above warmed every mode up
    calls = {
        mode: _counted_reference_run(mode, seed, ref)
        for mode in ("disabled", "noop", "flight")
    }
    noop_pct = (walls["noop"] - walls["disabled"]) / walls["disabled"] * 100
    noop_calls_pct = (calls["noop"] - calls["disabled"]) / calls["disabled"] * 100
    flight_pct = (walls["flight"] - walls["disabled"]) / walls["disabled"] * 100
    flight_calls_pct = (
        (calls["flight"] - calls["disabled"]) / calls["disabled"] * 100
    )
    enabled_pct = (walls["enabled"] - walls["disabled"]) / walls["disabled"] * 100
    return {
        "reference": ref,
        "wall_s": walls,
        "calls": calls,
        "noop_overhead_pct": noop_pct,
        "noop_calls_overhead_pct": noop_calls_pct,
        "flight_overhead_pct": flight_pct,
        "flight_calls_overhead_pct": flight_calls_pct,
        "enabled_overhead_pct": enabled_pct,
        "noop_budget_pct": NOOP_CALL_BUDGET * 100,
        "flight_budget_pct": FLIGHT_CALL_BUDGET * 100,
        "noop_within_budget": noop_calls_pct <= NOOP_CALL_BUDGET * 100,
        "flight_within_budget": flight_calls_pct <= FLIGHT_CALL_BUDGET * 100,
    }


def bench_hot_paths(
    fast: bool = False, seed: int = 3
) -> Dict[str, Any]:
    """The full hot-path report (the ``BENCH_hot_paths.json`` payload)."""
    ref: Dict[str, Any] = dict(REFERENCE)
    deep: Dict[str, Any] = dict(DEEP_REFERENCE)
    if fast:
        ref["ops_per_site"] = 50
        deep["ops_per_site"] = 40
    return {
        "reference": ref,
        "run": reference_run(seed=seed, **ref),
        "deep_reference": deep,
        "run_deep": deep_reference_run(seed=seed, **deep),
        "deplog": bench_deplog(n=ref["n"]),
        "clocks": bench_clocks(inner=2000 if fast else 20000),
        "trace_overhead": bench_trace_overhead(fast=fast, seed=seed),
    }


def write_report(
    path: str,
    fast: bool = False,
    seed: int = 3,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Write ``BENCH_hot_paths.json``; optionally also record a lifecycle
    trace of the reference run to ``trace`` (JSONL).  Raises
    ``RuntimeError`` when the no-op recorder overhead exceeds its budget
    — the ``make bench`` guardrail."""
    import json

    report = bench_hot_paths(fast=fast, seed=seed)
    if trace is not None:
        ref = dict(REFERENCE)
        if fast:
            ref["ops_per_site"] = 50
        cfg = ClusterConfig(
            n_sites=ref["n"],
            n_variables=ref["q"],
            protocol="opt-track",
            replication_factor=ref["p"],
            seed=seed,
            record_history=False,
            space_probe_every=None,
            trace=trace,
        )
        cluster = Cluster(cfg)
        workload = generate(
            WorkloadConfig(
                n_sites=ref["n"],
                ops_per_site=ref["ops_per_site"],
                write_rate=ref["write_rate"],
                placement=cluster.placement,
                seed=seed + 1,
            )
        )
        cluster.run(workload, check=False)
        report["trace_file"] = trace
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    overhead = report["trace_overhead"]
    if not overhead["noop_within_budget"]:
        raise RuntimeError(
            f"no-op recorder adds {overhead['noop_calls_overhead_pct']:.3f}% "
            f"calls, past the {overhead['noop_budget_pct']:.1f}% budget "
            "(the disabled-tracing fast path regressed)"
        )
    if not overhead["flight_within_budget"]:
        raise RuntimeError(
            f"flight ring adds {overhead['flight_calls_overhead_pct']:.2f}% "
            f"calls, past the {overhead['flight_budget_pct']:.0f}% budget "
            "(the always-on crash recorder got too expensive to keep on)"
        )
    return report

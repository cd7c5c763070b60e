"""One window of a simulator workload.

A window is as many identical *rounds* as fit its length: each round builds
a fresh ``repro.sim.cluster.Cluster`` and runs the same generated operation
scripts through ``Cluster.run``.  Because a round is deterministic in its
inputs, the Table-I counts (messages and SizeModel-priced bytes per
operation, mean activation delay in simulated time) must come out
identical in every round of every window — that is one of the output
checks.  Only ``Cluster.run`` is timed; building the cluster is set-up.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency

import spec as S
from kv import CorrectnessError
from tracing import Tracer, instrument_protocol


def _cluster(spec: S.SimSpec, latency: Any, *, check: bool) -> Cluster:
    model = None
    if latency is not None:
        model = MatrixLatency(latency, jitter_sigma=spec.wan[2])
    return Cluster(
        ClusterConfig(
            n_sites=spec.sites,
            n_variables=spec.variables,
            protocol=spec.protocol,
            replication_factor=spec.replication_factor,
            latency=model,
            seed=S.SIM_CLUSTER_SEED,
            think_time=spec.think_time,
            # the measured rounds run as the repo's reference runs do:
            # no history, no space probes; the gate turns both checks on
            record_history=check,
            sanitize=check,
            space_probe_every=None,
        )
    )


def gate(spec: S.SimSpec, seed: int) -> None:
    """The correctness pass: a short run under the causal sanitizer with
    history recording and the causal-consistency checker on."""
    scripts, latency = S.sim_inputs(spec, seed, spec.gate_ops_per_site)
    result = _cluster(spec, latency, check=True).run(scripts, check=True)
    if not result.ok:
        raise CorrectnessError(f"{spec.name}: causal-consistency check failed")


def window(
    spec: S.SimSpec, seed: int, seconds: float, *,
    ops_per_site: int, tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Run one window; returns its raw measurements (see :mod:`report`)."""
    gc.collect()  # the previous window's garbage is not this one's set-up cost
    t_setup = time.perf_counter()
    scripts, latency = S.sim_inputs(spec, seed, ops_per_site)
    generate_s = time.perf_counter() - t_setup

    wall = 0.0
    ops = events = rounds = 0
    counts: List[Any] = []
    builds: List[float] = []
    while True:
        gc.collect()  # nor the previous round's this build's
        t_build = time.perf_counter()
        cluster = _cluster(spec, latency, check=False)
        builds.append(time.perf_counter() - t_build)
        if tracer is not None:
            for protocol in cluster.protocols:
                instrument_protocol(protocol, tracer)
            tracer.enabled = True
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        result = cluster.run(scripts, check=False)
        wall += time.perf_counter() - t0
        gc.unfreeze()
        if tracer is not None:
            tracer.enabled = False
        summary = result.metrics
        n_ops = sum(summary.ops.values())
        if n_ops != sum(len(s) for s in scripts):
            raise CorrectnessError(
                f"{spec.name}: simulated {n_ops} operations of {sum(map(len, scripts))}"
            )
        cluster.assert_quiescent()
        ops += n_ops
        events += cluster.sim.events_processed
        rounds += 1
        counts.append(
            (summary.total_messages, summary.total_message_bytes,
             summary.activation_delay["mean"])
        )
        if wall >= seconds:
            break
    if len(set(counts)) != 1:
        raise CorrectnessError(
            f"{spec.name}: identical rounds disagree on message counts: {sorted(set(counts))}"
        )
    messages, message_bytes, activation = counts[0]
    per_round = ops // rounds
    return {
        # inputs are generated once per window, a cluster built per round
        "setup_s": generate_s + statistics.median(builds),
        "elapsed_s": wall,
        "ops": ops,
        "attempted": ops,
        "errors": 0,
        "rounds": rounds,
        "events": events,
        "msgs_per_op": messages / per_round,
        "wire_bytes_per_op": message_bytes / per_round,
        "activation_delay_ms": activation,
        "counts": counts[0],
    }

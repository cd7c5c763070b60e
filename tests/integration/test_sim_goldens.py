"""Pinned outcomes of the two simulator reference configurations.

``perf/`` measures these two runs (``sim-deep`` and ``sim-shallow``) for
speed and checks only that their rounds agree with each other; this test
pins what they must *be*: message count, priced bytes, engine events and
the mean activation delay to the last bit.  A change to clocks, latency
draws, the network or the engine that is meant to be invisible has to
leave every number here alone.

The seed-7 inputs of ``perf/spec.py`` are re-spelled below rather than
imported: ``perf/`` is not on tier-1's path, and a pin should not move
when the benchmark's generator does."""

import zlib

import numpy as np

from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import MatrixLatency
from repro.store.placement import default_variables
from repro.types import Operation

SEED = 7
CLUSTER_SEED = 3
MIX_BLOCK = 20


def _rng(seed, name, *stream):
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *stream])


def _mixed_kinds(rng, count, write_pct):
    writes = MIX_BLOCK * write_pct // 100
    block = np.zeros(MIX_BLOCK, dtype=bool)
    block[:writes] = True
    blocks = np.tile(block, (count // MIX_BLOCK + 1, 1))
    return rng.permuted(blocks, axis=1).ravel()[:count]


def scripts_for(name, sites, n_variables, write_pct, ops_per_site):
    variables = default_variables(n_variables)
    q = len(variables)
    scripts = []
    for site in range(sites):
        rng = _rng(SEED, name, site)
        kinds = _mixed_kinds(rng, ops_per_site, write_pct)
        passes = ops_per_site // q + 1
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
    return scripts


def run(name, *, sites, variables, protocol, replication_factor, write_pct,
        ops_per_site, think_time, wan=None):
    latency = None
    if wan is not None:
        low, high, sigma = wan
        base = _rng(CLUSTER_SEED, name).uniform(low, high, size=(sites, sites))
        np.fill_diagonal(base, 0.0)
        latency = MatrixLatency(base, jitter_sigma=sigma)
    cluster = Cluster(
        ClusterConfig(
            n_sites=sites,
            n_variables=variables,
            protocol=protocol,
            replication_factor=replication_factor,
            latency=latency,
            seed=CLUSTER_SEED,
            think_time=think_time,
            record_history=False,
            space_probe_every=None,
        )
    )
    scripts = scripts_for(name, sites, variables, write_pct, ops_per_site)
    summary = cluster.run(scripts, check=False).metrics
    cluster.assert_quiescent()
    return (
        summary.total_messages,
        summary.total_message_bytes,
        cluster.sim.events_processed,
        summary.activation_delay["mean"],
    )


def test_sim_deep_golden():
    assert run(
        "sim-deep", sites=16, variables=60, protocol="optp",
        replication_factor=None, write_pct=80, ops_per_site=300,
        think_time=0.1, wan=(0.5, 400.0, 0.3),
    ) == (57_600, 8_755_200, 62_416, 2.07758649377234)


def test_sim_shallow_golden():
    assert run(
        "sim-shallow", sites=20, variables=100, protocol="opt-track",
        replication_factor=3, write_pct=40, ops_per_site=500, think_time=1.0,
    ) == (21_600, 16_369_576, 31_620, 0.0)

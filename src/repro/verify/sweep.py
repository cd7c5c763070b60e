"""Seed sweep of every protocol under both oracles (``make sanitize-sweep``).

Random property draws almost never reach a bug that lives on a handful of
seeds; a fixed sweep reaches the same ones every time.  Each run is a tiny
simulated cluster (3 sites, 3 variables, 15 operations per site) with
the runtime causal sanitizer shadowing every apply and the history checker (``CausalChecker``) run at
the end.  Partial-replication protocols run at one replica per variable,
so almost every read is remote; the full-replication ones run full.  The
sweep stops at the first violation and names its protocol and seed, which
replays it exactly::

    python -m repro.verify.sweep                    # seeds 0..499
    python -m repro.verify.sweep --seeds 20 --start 100 --protocol optp
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

#: the scope of one run: small enough that a seed is a few milliseconds
N_SITES = 3
N_VARIABLES = 3
OPS_PER_SITE = 15

#: (protocol, replication factor; None = full replication)
PROTOCOLS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("opt-track", 1),
    ("full-track", 1),
    ("opt-track-crp", None),
    ("optp", None),
    ("ahamad", None),
)


@dataclass(frozen=True)
class SweepFailure:
    """The first run that failed: enough to replay it."""

    protocol: str
    seed: int
    error: BaseException

    def __str__(self) -> str:
        first = (str(self.error) or "failed").splitlines()[0]
        return (
            f"protocol {self.protocol} seed {self.seed}: "
            f"{type(self.error).__name__}: {first}"
        )


def run_one(protocol: str, replication_factor: Optional[int], seed: int) -> None:
    """One sanitized, history-checked run; raises on any violation."""
    # deferred: verify sits below sim and workload in the layering
    from repro.sim.cluster import Cluster, ClusterConfig
    from repro.sim.latency import MatrixLatency
    from repro.workload.generator import WorkloadConfig, generate

    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 80.0, size=(N_SITES, N_SITES))
    np.fill_diagonal(base, 0.0)
    cluster = Cluster(
        ClusterConfig(
            n_sites=N_SITES,
            n_variables=N_VARIABLES,
            protocol=protocol,
            replication_factor=replication_factor,
            latency=MatrixLatency(base, jitter_sigma=0.2),
            seed=seed,
            sanitize=True,
            record_history=True,
            space_probe_every=None,
        )
    )
    workload = generate(
        WorkloadConfig(
            n_sites=N_SITES,
            ops_per_site=OPS_PER_SITE,
            write_rate=0.4,
            variables=cluster.variables,
            seed=seed,
        )
    )
    # the sanitizer raises out of run(); check=True raises on a history
    # violation (ConsistencyViolationError)
    cluster.run(workload, check=True)


def sweep(
    seeds: Sequence[int],
    protocols: Sequence[Tuple[str, Optional[int]]] = PROTOCOLS,
) -> Optional[SweepFailure]:
    """Run every protocol over every seed, protocol by protocol; returns
    the first failure, or None when every run was clean."""
    for protocol, rf in protocols:
        for seed in seeds:
            try:
                run_one(protocol, rf, seed)
            except Exception as exc:  # any failure ends the sweep, named
                return SweepFailure(protocol, seed, exc)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.sweep",
        description="sweep fixed seeds over every protocol under the causal "
        "sanitizer and the history checker",
    )
    parser.add_argument("--seeds", type=int, default=500, help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument(
        "--protocol",
        action="append",
        choices=[p for p, _ in PROTOCOLS],
        help="sweep only this protocol (repeatable; default: all)",
    )
    args = parser.parse_args(argv)

    protocols = [
        (p, rf) for p, rf in PROTOCOLS if not args.protocol or p in args.protocol
    ]
    seeds = range(args.start, args.start + args.seeds)
    failure = sweep(seeds, protocols)
    if failure is not None:
        print(f"sanitize-sweep: FAILED on {failure}", file=sys.stderr)
        return 1
    runs = len(protocols) * len(seeds)
    print(
        f"swept {runs} runs ({len(protocols)} protocols x seeds "
        f"{seeds.start}..{seeds.stop - 1}; {N_SITES} sites, {N_VARIABLES} "
        f"variables, {OPS_PER_SITE} ops/site): clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = ["PROTOCOLS", "SweepFailure", "run_one", "sweep"]

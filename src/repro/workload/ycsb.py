"""YCSB-style workload presets.

The Yahoo! Cloud Serving Benchmark core workloads, adapted to the paper's
read/write shared-memory model (no scans or read-modify-write: a YCSB
"update" is a write, an RMW becomes a read followed by a write of the same
key — which is exactly the operation pair that exercises causal tracking
hardest).

========  =========================  ==========================  =========
workload  YCSB meaning               mix                          popularity
========  =========================  ==========================  =========
``a``     update heavy               50% read / 50% write         zipf
``b``     read mostly                95% read / 5% write          zipf
``c``     read only                  100% read                    zipf
``d``     read latest                95% read / 5% insert         latest
``f``     read-modify-write          50% read / 50% RMW pairs     zipf
``w``     write only (extension)     100% write                   zipf
========  =========================  ==========================  =========

Workload ``d``'s "latest" distribution is modeled by biasing reads toward
the most recently written keys; ``e`` (scans) has no analogue in a
register-based shared memory and is omitted.  ``w`` is not a YCSB core
workload: it is the metadata-dominated regime (every op ships a
dependency log).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.types import Operation, VarId

Workload = List[List[Operation]]

WORKLOADS = ("a", "b", "c", "d", "f", "w")

_MIX: Dict[str, float] = {
    "a": 0.5,
    "b": 0.05,
    "c": 0.0,
    "d": 0.05,
    "f": 0.5,
    "w": 1.0,
}


def _zipf_pmf(q: int, s: float = 0.99) -> np.ndarray:
    ranks = np.arange(1, q + 1, dtype=float)
    pmf = ranks**-s
    return pmf / pmf.sum()


def ycsb(
    workload: str,
    n_sites: int,
    variables: Sequence[VarId],
    ops_per_site: int = 100,
    zipf_s: float = 0.99,
    latest_window: int = 8,
    seed: int = 0,
    value_size: int = 0,
) -> Workload:
    """Generate one of the YCSB core workloads (see module docstring).

    ``value_size`` pads every written value to at least that many bytes
    (YCSB's record size: the standard core workloads write ~1 KB rows;
    the default 0 keeps the short self-describing values, handy in test
    assertions).  Values stay unique per (site, counter) either way.
    """
    if workload not in WORKLOADS:
        raise ConfigurationError(
            f"unknown YCSB workload {workload!r}; choose from {WORKLOADS}"
        )
    if n_sites <= 0:
        raise ConfigurationError(f"need n_sites >= 1, got {n_sites}")
    variables = list(variables)
    if not variables:
        raise ConfigurationError("need at least one variable")

    rng = np.random.default_rng(seed)
    q = len(variables)
    pmf = _zipf_pmf(q, zipf_s)
    write_rate = _MIX[workload]

    def value(site: int, counter: int, prefix: str = "v") -> str:
        v = f"{prefix}{site}.{counter}"
        return v.ljust(value_size, "x") if value_size else v

    #: shared recency ring for workload d ("read latest"); approximates
    #: YCSB's latest distribution with the keys this *generator* wrote
    #: most recently
    recent: List[VarId] = []

    scripts: Workload = []
    for site in range(n_sites):
        ops: List[Operation] = []
        counter = 0
        while len(ops) < ops_per_site:
            var = variables[int(rng.choice(q, p=pmf))]
            if workload == "f":
                # read-modify-write pair on one key
                if rng.random() < write_rate:
                    counter += 1
                    ops.append(Operation.read(var))
                    if len(ops) < ops_per_site:
                        ops.append(Operation.write(var, value(site, counter, "rmw")))
                    continue
                ops.append(Operation.read(var))
                continue
            if rng.random() < write_rate:
                counter += 1
                ops.append(Operation.write(var, value(site, counter)))
                recent.append(var)
                if len(recent) > latest_window:
                    recent.pop(0)
            else:
                if workload == "d" and recent and rng.random() < 0.8:
                    var = recent[int(rng.integers(len(recent)))]
                ops.append(Operation.read(var))
        scripts.append(ops)
    return scripts


def describe(workload: str) -> str:
    """One-line description of a YCSB workload letter."""
    return {
        "a": "update heavy: 50/50 read/write, zipf",
        "b": "read mostly: 95/5 read/write, zipf",
        "c": "read only, zipf",
        "d": "read latest: 95/5, reads biased to recent writes",
        "f": "read-modify-write pairs: 50/50, zipf",
        "w": "write only: 100% writes, zipf (metadata-bound)",
    }[workload]

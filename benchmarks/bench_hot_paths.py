"""Hot-path timing harness: the two reference runs, DepLog and VectorClock
micro-operations, and the lifecycle-tracing overhead ledger.

Regenerates ``BENCH_hot_paths.json`` (checked in at the repo root) — the
measured basis for the before/after table in docs/performance.md and the
tracing cost table in docs/observability.md.  ``write_report`` (and so
``make bench``) fails when an attached no-op recorder costs more than 3%
over the untraced run — the guardrail keeping tracing zero-cost-off —
or when the always-on flight ring costs more than 20% (the guardrail
keeping the crash recorder cheap enough to leave on).

Run directly::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py [--fast] [--out PATH]

or via the CLI / make::

    PYTHONPATH=src python -m repro.cli bench
    make bench

Also exposes a pytest smoke test so the harness itself cannot rot: a fast
pass must produce both runs' throughput, non-degenerate micro timings, and
clock operations that agree with their numpy reference.
"""

from __future__ import annotations

import argparse
import json

from repro.analysis.hotpaths import bench_hot_paths, write_report


def test_hot_path_bench_smoke():
    report = bench_hot_paths(fast=True)
    for run in (report["run"], report["run_deep"]):
        assert run["messages"] > 0
        assert run["ops_per_s"] > 0
    micro = report["deplog"]
    assert micro["records"] > 0
    for key, value in micro.items():
        assert value > 0, key
    clocks = report["clocks"]
    # counted, not timed: every VectorClock operation returns what the
    # numpy spelling it replaced returns, on the fixed vector set
    assert clocks["agree"] is True
    assert set(clocks) == {"agree", "n=5", "n=16", "n=40"}
    overhead = report["trace_overhead"]
    assert set(overhead["wall_s"]) == {"disabled", "noop", "flight", "enabled"}
    assert all(w > 0 for w in overhead["wall_s"].values())
    # the no-op gate is judged on counted calls, not on the wall times
    assert set(overhead["calls"]) == {"disabled", "noop"}
    assert all(c > 0 for c in overhead["calls"].values())
    # the budgets themselves are asserted by write_report / make bench;
    # the smoke test only checks the ledger exists and is well-formed
    assert "noop_within_budget" in overhead
    assert "flight_within_budget" in overhead


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_hot_paths.json")
    parser.add_argument("--fast", action="store_true", help="50 ops/site")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    report = write_report(args.out, fast=args.fast, seed=args.seed)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

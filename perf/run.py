#!/usr/bin/env python3
"""The repository's benchmark: one command, six workloads.

    python perf/run.py --seed 7                       all workloads, end to end
    python perf/run.py --seed 7 --traced              ... plus the per-layer runs
    python perf/run.py --seed 7 --workload sim-deep   one workload
    python perf/run.py --selfcheck                    two sets, compared to the bounds
    python perf/run.py --workload W --seed N --seconds S --trace 0|1   a single run

Without ``--trace`` this is the orchestrator: it runs each workload in its
own subprocess (one after another, so memory peaks do not leak across),
relays what each prints and finishes with a summary.  With ``--trace`` it
is a single run of one workload in this process: it prints every metric by
name with unit, sample count and min/max, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A failed
output check exits non-zero and prints no JSON line.

``repro`` is imported from this checkout's ``src/`` (no PYTHONPATH
needed).  ``perf/README.md`` says what every name means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def single(args: argparse.Namespace) -> int:
    """One run of one workload in this process (what the driver calls)."""
    import report
    import spec as S
    from kv import CorrectnessError

    os.makedirs(report.OUT, exist_ok=True)
    runner = report.run_per_layer if args.trace else report.run_end_to_end
    try:
        result = asyncio.run(
            runner(S.BY_NAME[args.workload], args.seed, args.seconds, args.fast)
        )
    except CorrectnessError as exc:
        print(f"perf/run.py: CORRECTNESS FAILURE: {exc}", file=sys.stderr)
        return 1
    except report.ShortWindowError as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def _child(workload: str, args: argparse.Namespace, trace: int) -> Optional[Dict[str, Any]]:
    """Run one workload in its own process; relay its report, return its
    result line (``None`` when it failed)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.fast:
        cmd.append("--fast")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"{workload}: FAILED (exit {proc.returncode})")
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def _selfcheck(first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """Two sets of runs of the same code must agree within each metric's
    own regression bound; prints the table the PR description quotes."""
    import spec as S

    print("\nselfcheck: second set against first, worsening as a share of the first")
    print(f"  {'workload':<18} {'metric':<20} {'first':>12} {'second':>12} {'worse':>8} {'bound':>6}")
    ok = True
    for workload, result in first.items():
        for name, (_, better, bound) in S.END_TO_END.items():
            a = result["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            flag = "" if worse <= bound else "  EXCEEDS"
            ok = ok and worse <= bound
            print(f"  {workload:<18} {name:<20} {a:>12.4f} {b:>12.4f} {worse:>+8.3f} {bound:>6.2f}{flag}")
    return ok


def orchestrate(args: argparse.Namespace) -> int:
    import spec as S

    names = [args.workload] if args.workload else [w.name for w in S.WORKLOADS]
    t0 = time.perf_counter()
    first = {name: _child(name, args, 0) for name in names}
    ok = all(first.values())
    if args.selfcheck and ok:
        second = {name: _child(name, args, 0) for name in names}
        ok = all(second.values()) and _selfcheck(first, second)
    if args.traced:
        ok = all([_child(name, args, 1) for name in names]) and ok
    print(f"\n{len(names)} workload(s), seed {args.seed}, "
          f"{time.perf_counter() - t0:.0f} s wall -- {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run, split over the windows")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single run of --workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="orchestrator: also run the per-layer (traced) run of each workload")
    parser.add_argument("--selfcheck", action="store_true",
                        help="orchestrator: run the set twice and compare within the bounds")
    parser.add_argument("--fast", action="store_true",
                        help="smoke run: one short window, numbers not judged")
    args = parser.parse_args(argv)

    # the program under test is this checkout's src/, nothing installed
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perf/run.py: nothing to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import spec as S

    if args.workload is not None and args.workload not in S.BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(S.BY_NAME)}")
    if args.seconds is None:
        args.seconds = S.FAST_SECONDS if args.fast else float(S.RUN_SECONDS)
    if args.trace is None:
        return orchestrate(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())

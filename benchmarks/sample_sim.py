"""Where a simulator workload's wall time goes: a SIGPROF stack sampler.

    python benchmarks/sample_sim.py --workload sim-deep
    python benchmarks/sample_sim.py --root /path/to/other/checkout ...

Runs rounds of a ``perf/`` simulator workload (same cluster and inputs as
``perf/run.py``) under ``signal.setitimer(ITIMER_PROF)``: every
``--interval`` seconds of CPU time (or every kernel tick, if that is
coarser) the handler walks the interrupted stack once.  Each frame on it
is charged *inclusive* time (the function was on the stack), the
innermost frame *self* time.  Unlike ``cProfile``
nothing is hooked per call, so cheap functions called 200 000 times are
not inflated against C code that makes no calls; time inside a C call
(a numpy ufunc, ``heappush``) lands on the Python frame that made it.

Prints the top functions by inclusive share of samples.  ``--root``
samples another checkout with this same script, which is how the
before/after table in docs/performance.md ("Clock state without numpy")
is taken.  Not a guardrail: shares, not speeds.
"""

from __future__ import annotations

import argparse
import collections
import os
import signal
import sys
from types import CodeType
from typing import Counter, Dict, Tuple

Key = Tuple[str, str]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="sim-deep")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--interval", type=float, default=0.001)
    parser.add_argument("--top", type=int, default=18)
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path[:0] = [src, os.path.join(args.root, "perf")]
    import simrun  # type: ignore[import-not-found]
    import spec  # type: ignore[import-not-found]

    workload = spec.BY_NAME[args.workload]
    scripts, latency = spec.sim_inputs(workload, args.seed, workload.ops_per_site)

    inclusive: Counter[Key] = collections.Counter()
    self_time: Counter[Key] = collections.Counter()
    names: Dict[CodeType, Key] = {}
    samples = 0

    def on_tick(signum, frame) -> None:
        nonlocal samples
        samples += 1
        seen = set()
        innermost = True
        while frame is not None:
            code = frame.f_code
            key = names.get(code)
            if key is None:
                key = names[code] = (
                    os.path.relpath(code.co_filename, src), code.co_qualname
                )
            if innermost:
                self_time[key] += 1
                innermost = False
            if key not in seen:  # recursion: count a function once a sample
                seen.add(key)
                inclusive[key] += 1
            frame = frame.f_back

    signal.signal(signal.SIGPROF, on_tick)
    for _ in range(args.rounds):
        cluster = simrun._cluster(workload, latency, check=False)
        signal.setitimer(signal.ITIMER_PROF, args.interval, args.interval)
        try:
            cluster.run(scripts, check=False)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    print(f"{args.workload} @ {args.root}: {samples} samples over "
          f"{args.rounds} rounds (asked for one per {args.interval * 1e3:g} ms of CPU)")
    print(f"{'incl %':>7} {'self %':>7}  function")
    shown = [
        (key, count) for key, count in inclusive.most_common()
        if key[0].startswith("repro")
    ]
    for key, count in shown[: args.top]:
        print(f"{100 * count / samples:7.1f} {100 * self_time[key] / samples:7.1f}  "
              f"{key[0]}:{key[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

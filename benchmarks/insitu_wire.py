"""In-situ cost of the wire layer's entry points during a perf/ window.

    python benchmarks/insitu_wire.py --workload kv-partial-meta
    python benchmarks/insitu_wire.py --root /path/to/other/checkout ...

Runs one untraced window of a ``perf/`` service workload (same cluster,
inputs and drive loop as ``perf/run.py --trace 0``) with every public
codec entry point — and the counter lookups that ride on every frame —
wrapped in a ``perf_counter`` accumulator, then prints calls, µs/call,
µs/op and the share of the window's per-operation budget
(``1e6 / ops_per_s``) for each.  Nothing is skipped or replayed: the
numbers are what the live event loop paid, wrapper overhead (two clock
reads, ≈ 0.3 µs a call) included on both sides of any comparison.

Nested entry points (``DeltaEncoder.encode_update`` calls
``encode_update``) are charged to the outermost one only, so the rows
sum without double counting.  ``--root`` measures another checkout with
this same script; names a checkout does not have are left out, which is
how one list serves both sides of a before/after table
(docs/performance.md, "Where a frame's microseconds go").

Not a guardrail and not part of ``perf/``: it adds clock reads to the
hot path, so its ``ops_per_s`` reads lower than the benchmark's.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

#: ``module:qualname`` of every entry point timed, grouped by ledger row
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "codec": (
        "repro.service.wire:BinaryCodec.encode",
        "repro.service.wire:JsonCodec.encode",
        "repro.service.wire:decode_body",
        "repro.service.wire:decode_message",
        "repro.service.wire:DeltaEncoder.encode_update",
        "repro.service.wire:DeltaEncoder.pack_update",
        "repro.service.wire:DeltaDecoder.decode_update",
        "repro.service.wire:DeltaDecoder.unpack_update",
        "repro.service.wire:encode_update",
        "repro.service.wire:decode_update",
        "repro.service.wire:encode_fetch_request",
        "repro.service.wire:decode_fetch_request",
        "repro.service.wire:encode_fetch_reply",
        "repro.service.wire:decode_fetch_reply",
        "repro.service.wire:BinaryCodec.pack_update",
        "repro.service.wire:BinaryCodec.pack_ack",
        "repro.service.wire:BinaryCodec.pack_put",
        "repro.service.wire:BinaryCodec.pack_put_ok",
        "repro.service.wire:BinaryCodec.pack_get",
        "repro.service.wire:BinaryCodec.pack_get_ok",
        "repro.service.wire:BinaryCodec.pack_fetch",
        "repro.service.wire:BinaryCodec.pack_fetch_ok",
        "repro.service.wire:BinaryCodec.pack_wal_put",
        "repro.service.wire:BinaryCodec.pack_wal_read",
        "repro.service.wire:BinaryCodec.pack_wal_rfetch",
    ),
    "counters": (
        "repro.service.server:SiteServer.metric",
        "repro.service.client:KVClient._metric",
        "repro.service.transport:WireMeter.kind",
    ),
}


class _Clock:
    """Accumulators shared by every wrapper; ``depth`` keeps nested
    entry points from being charged twice."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.depth = 0
        self.enabled = False

    def wrap(self, label: str, fn: Any) -> Any:
        calls, seconds = self.calls, self.seconds
        calls[label] = 0
        seconds[label] = 0.0
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled or self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] += clock() - t0
                calls[label] += 1
                self.depth = 0

        return timed


def _install(clock: _Clock) -> Dict[str, List[str]]:
    """Wrap every entry point this checkout has; returns the labels per
    group (missing names are simply not there)."""
    groups: Dict[str, List[str]] = {}
    for group, names in ENTRY_POINTS.items():
        groups[group] = []
        for name in names:
            module_name, qualname = name.split(":")
            owner: Any = importlib.import_module(module_name)
            parts = qualname.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                fn = owner.__dict__[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            except (AttributeError, KeyError):
                continue
            setattr(owner, parts[-1], clock.wrap(qualname, fn))
            groups[group].append(qualname)
    return groups


async def _measure(root: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    import kv  # perf/kv.py of the measured checkout
    import spec as S

    clock = _Clock()
    groups = _install(clock)
    drive = kv._drive

    async def timed_drive(*args: Any, **kwargs: Any) -> Any:
        clock.enabled = True
        try:
            return await drive(*args, **kwargs)
        finally:
            clock.enabled = False

    kv._drive = timed_drive
    with tempfile.TemporaryDirectory(prefix="insitu-") as scratch:
        w = await kv.window(S.BY_NAME[workload], seed, seconds, scratch, recover=False)
    ops = w["ops"]
    budget_us = w["elapsed_s"] / ops * 1e6
    rows = []
    for group, labels in groups.items():
        for label in labels:
            n = clock.calls[label]
            if not n:
                continue
            us = clock.seconds[label] * 1e6
            rows.append({
                "group": group, "entry": label, "calls": n,
                "calls_per_op": n / ops, "us_per_call": us / n,
                "us_per_op": us / ops, "share": us / ops / budget_us,
            })
    return {"workload": workload, "root": root, "seed": seed, "ops": ops,
            "ops_per_s": ops / w["elapsed_s"], "budget_us_per_op": budget_us, "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=here, help="checkout to measure")
    parser.add_argument("--workload", default="kv-partial-meta")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perf")]
    result = asyncio.run(_measure(root, args.workload, args.seed, args.seconds))
    if args.json:
        print(json.dumps(result))
        return 0
    print(f"{result['workload']} @ {root}: {result['ops']} ops, "
          f"{result['ops_per_s']:.0f} ops/s, budget {result['budget_us_per_op']:.1f} us/op")
    print(f"  {'entry point':<36} {'calls/op':>9} {'us/call':>9} {'us/op':>9} {'share':>7}")
    for group in ENTRY_POINTS:
        total = 0.0
        for row in result["rows"]:
            if row["group"] != group:
                continue
            total += row["us_per_op"]
            print(f"  {row['entry']:<36} {row['calls_per_op']:>9.2f} {row['us_per_call']:>9.2f} "
                  f"{row['us_per_op']:>9.2f} {row['share']:>6.1%}")
        print(f"  {group + ' total':<36} {'':>9} {'':>9} {total:>9.2f} "
              f"{total / result['budget_us_per_op']:>6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: ``repro-sim``.

Subcommands::

    repro-sim table1   [--n 10 --q 50 --p 3 --write-rate 0.4 --ops 100]
    repro-sim fig4     [--n 10 --ops 60] [--analytic-only] [--jobs N --cache DIR]
    repro-sim sweep    [--protocol a,b --write-rate 0.2,0.8 ...] [--jobs N --cache DIR]
    repro-sim run      --protocol opt-track --n 10 [--p 3 --ops 100 ...]
    repro-sim trace    FILE [--top K] [--update s3#17] [--replay] [--json]
    repro-sim protocols

``table1`` and ``fig4`` regenerate the paper's evaluation artifacts;
``run`` executes one ad-hoc simulation and prints its metric summary.
``sweep`` and ``fig4`` fan their independent cells out over ``--jobs``
worker processes and memoize finished cells in the content-addressed
result cache under ``--cache`` (see :mod:`repro.analysis.runner`); cell
progress streams to stderr, results are identical to a serial run.

``--trace`` records a per-update lifecycle trace (``repro.obs`` JSONL):
a file path on ``run``/``bench``, a directory (one file per cell) on
``sweep``/``fig4``.  ``trace`` renders a recorded file — the timeline of
one update (``--update``), or the top-K report (slowest activations,
biggest buffers, most-pruned senders) — and ``--replay`` re-drives the
records through the causal sanitizer's oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.analysis.fig4 import fig4_analytic, fig4_simulated, render_fig4
from repro.analysis.tables import render_table1, run_table1
from repro.core.base import available_protocols
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workload.generator import WorkloadConfig, generate


def _add_runner(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent cells (0 = all cores)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (reruns only "
        "simulate missing cells)",
    )


def _runner_kwargs(args: argparse.Namespace) -> dict:
    jobs = None if args.jobs == 0 else args.jobs
    done_tags = {"cached": 0, "simulated": 0}

    def progress(done: int, total: int, outcome) -> None:
        done_tags["cached" if outcome.cached else "simulated"] += 1
        print(
            f"\r[{done}/{total}] cells "
            f"({done_tags['simulated']} simulated, {done_tags['cached']} cached)",
            end="" if done < total else "\n",
            file=sys.stderr,
        )

    return {"jobs": jobs, "cache_dir": args.cache, "progress": progress}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=10, help="number of sites")
    p.add_argument("--q", type=int, default=50, help="number of variables")
    p.add_argument("--ops", type=int, default=100, help="operations per site")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Causal consistency under partial replication — "
        "simulation and evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="measured Table I")
    _add_common(t1)
    t1.add_argument("--p", type=int, default=3, help="replication factor")
    t1.add_argument("--write-rate", type=float, default=0.4)

    f4 = sub.add_parser("fig4", help="Figure 4 series")
    f4.add_argument("--n", type=int, default=10)
    f4.add_argument("--ops", type=int, default=60)
    f4.add_argument("--seed", type=int, default=0)
    f4.add_argument(
        "--analytic-only",
        action="store_true",
        help="skip the simulated series (fast)",
    )
    f4.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record one lifecycle trace per cell into this directory",
    )
    _add_runner(f4)

    run = sub.add_parser("run", help="one ad-hoc simulation")
    _add_common(run)
    run.add_argument("--protocol", default="opt-track", choices=available_protocols())
    run.add_argument("--p", type=int, default=None, help="replication factor")
    run.add_argument("--write-rate", type=float, default=0.3)
    run.add_argument("--json", action="store_true", help="JSON metric dump")
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record the run's lifecycle trace as JSONL "
        "(render with: repro-sim trace PATH)",
    )

    tr = sub.add_parser(
        "trace",
        help="render a recorded lifecycle trace",
        description="Render a JSONL trace recorded via --trace: the "
        "top-K report by default, one update's timeline with --update.",
    )
    tr.add_argument("file", help="JSONL trace file")
    tr.add_argument("--top", type=int, default=5, help="rows per top-K section")
    tr.add_argument(
        "--update",
        default=None,
        metavar="WID",
        help="render one update's lifecycle (write id, e.g. s3#17)",
    )
    tr.add_argument(
        "--replay",
        action="store_true",
        help="re-drive the records through the causal sanitizer oracle",
    )
    tr.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )

    sub.add_parser("protocols", help="list available protocols")

    scen = sub.add_parser("scenario", help="run a named workload scenario")
    scen.add_argument("name", choices=["social-network", "hdfs-like", "write-intensive", "read-intensive"])
    scen.add_argument("--n", type=int, default=10)
    scen.add_argument("--protocol", default="opt-track", choices=available_protocols())
    scen.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("report", help="regenerate the full measured evaluation report (markdown)")
    rep.add_argument("--n", type=int, default=10)
    rep.add_argument("--seed", type=int, default=1)
    rep.add_argument("--fast", action="store_true", help="skip the simulated Figure-4 sweep")
    rep.add_argument("--out", default=None, help="write to file instead of stdout")
    _add_runner(rep)

    sw = sub.add_parser(
        "sweep",
        help="parameter sweep over the cartesian grid; CSV output",
        description="Comma-separate values to sweep a parameter, e.g. "
        "repro-sim sweep --protocol opt-track,optp --write-rate 0.2,0.8 --n 8",
    )
    sw.add_argument("--protocol", default="opt-track", help="comma-separated")
    sw.add_argument("--n", default="10", help="comma-separated site counts")
    sw.add_argument("--p", default="3", help="comma-separated replication factors")
    sw.add_argument("--write-rate", default="0.4", help="comma-separated")
    sw.add_argument("--q", type=int, default=30)
    sw.add_argument("--ops", type=int, default=60)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", default=None, help="CSV file (default: stdout)")
    sw.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record one lifecycle trace per cell into this directory",
    )
    _add_runner(sw)

    bench = sub.add_parser(
        "bench",
        help="hot-path benchmark: reference runs + DepLog/VectorClock micro-ops",
        description="Times the reference run (n=20, q=100, p=3) and the "
        "deep-buffer run, the DepLog hot operations and the VectorClock "
        "operations beside their numpy spelling, and writes the "
        "BENCH_hot_paths.json report.",
    )
    bench.add_argument("--out", default="BENCH_hot_paths.json")
    bench.add_argument("--fast", action="store_true", help="50 ops/site")
    bench.add_argument("--seed", type=int, default=3)
    bench.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also record the reference run's lifecycle trace as JSONL",
    )
    return parser


def cmd_table1(args: argparse.Namespace) -> int:
    result = run_table1(
        n=args.n,
        q=args.q,
        p=args.p,
        ops_per_site=args.ops,
        write_rate=args.write_rate,
        seed=args.seed,
    )
    print(render_table1(result))
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    print(render_fig4(fig4_analytic(n=args.n)))
    if not args.analytic_only:
        print(
            render_fig4(
                fig4_simulated(
                    n=args.n,
                    ops_per_site=args.ops,
                    seed=args.seed,
                    trace_dir=args.trace,
                    **_runner_kwargs(args),
                )
            )
        )
        if args.trace:
            print(f"traces in {args.trace}/", file=sys.stderr)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = ClusterConfig(
        n_sites=args.n,
        n_variables=args.q,
        protocol=args.protocol,
        replication_factor=args.p,
        seed=args.seed,
        trace=args.trace if args.trace else False,
    )
    cluster = Cluster(cfg)
    workload = generate(
        WorkloadConfig(
            n_sites=args.n,
            ops_per_site=args.ops,
            write_rate=args.write_rate,
            placement=cluster.placement,
            seed=args.seed,
        )
    )
    result = cluster.run(workload)
    m = result.metrics
    if args.json:
        print(
            json.dumps(
                {
                    "protocol": args.protocol,
                    "messages": m.message_counts,
                    "bytes": m.message_bytes,
                    "ops": m.ops,
                    "activation_delay": m.activation_delay,
                    "space": m.space_bytes,
                    "sim_time_ms": result.sim_time,
                    "causally_consistent": result.ok,
                },
                indent=1,
            )
        )
    else:
        print(f"protocol            {args.protocol}")
        print(f"messages            {m.message_counts} (total {m.total_messages})")
        print(f"control bytes       {m.total_message_bytes}")
        print(f"ops                 {m.ops}")
        print(f"activation delay    mean {m.activation_delay['mean']:.3f} ms")
        print(f"space/site          mean {m.space_bytes['mean_per_site']:.0f} B")
        print(f"sim time            {result.sim_time:.1f} ms")
        print(f"causally consistent {result.ok}")
    if args.trace:
        print(f"trace               {args.trace}", file=sys.stderr)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        load_trace,
        parse_write_id,
        render_report,
        render_update,
        replay_trace,
    )

    loaded = load_trace(args.file)
    if args.update is not None:
        try:
            wid = parse_write_id(args.update)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        span = loaded.span_tree().get(wid)
        if span is None:
            print(f"no update {args.update} in {args.file}", file=sys.stderr)
            return 1
        print(render_update(span))
    elif args.json:
        spans = loaded.span_tree()
        buffered = [s for s in spans.values() if s.was_buffered]
        print(
            json.dumps(
                {
                    "path": str(loaded.path),
                    "header": loaded.header,
                    "records": len(loaded.records),
                    "kinds": loaded.kind_counts(),
                    "updates": len(spans),
                    "buffered_updates": len(buffered),
                    "max_buffered_ms": max(
                        (s.max_buffered_for for s in buffered), default=0.0
                    ),
                },
                indent=1,
                sort_keys=True,
            )
        )
    else:
        print(render_report(loaded, top=args.top))
    if args.replay:
        print()
        print(replay_trace(loaded).summary())
    return 0


def cmd_protocols(_args: argparse.Namespace) -> int:
    for name in available_protocols():
        print(name)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.sim.topology import evenly_spread
    from repro.workload.scenarios import SCENARIOS

    builder = SCENARIOS[args.name]
    topology = evenly_spread(args.n)
    if args.name == "social-network":
        placement, workload = builder(args.n, topology=topology, seed=args.seed)
    else:
        placement, workload = builder(args.n, seed=args.seed)
    if args.protocol in ("opt-track-crp", "optp", "ahamad"):
        placement = {k: tuple(range(args.n)) for k in placement}
    cluster = Cluster(
        ClusterConfig(
            n_sites=args.n,
            protocol=args.protocol,
            placement=placement,
            topology=topology,
            seed=args.seed,
        )
    )
    result = cluster.run(workload)
    m = result.metrics
    print(f"scenario            {args.name} ({args.protocol}, n={args.n})")
    print(f"messages            {m.message_counts} (total {m.total_messages})")
    print(f"control bytes       {m.total_message_bytes}")
    print(f"ops                 {m.ops}")
    print(f"causally consistent {result.ok}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportConfig, generate_report

    cfg = ReportConfig(
        n=args.n,
        seed=args.seed,
        include_simulated_fig4=not args.fast,
        jobs=None if args.jobs == 0 else args.jobs,
        cache_dir=args.cache,
    )
    text = generate_report(cfg)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import sweep, to_csv

    def ints(text: str) -> list:
        return [int(x) for x in text.split(",")]

    def floats(text: str) -> list:
        return [float(x) for x in text.split(",")]

    rows = sweep(
        protocol=args.protocol.split(","),
        n=ints(args.n),
        p=ints(args.p),
        write_rate=floats(args.write_rate),
        q=args.q,
        ops_per_site=args.ops,
        seed=args.seed,
        trace_dir=args.trace,
        **_runner_kwargs(args),
    )
    text = to_csv(rows, args.out)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.hotpaths import write_report

    report = write_report(
        args.out, fast=args.fast, seed=args.seed, trace=args.trace
    )
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"wrote {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "table1": cmd_table1,
        "fig4": cmd_fig4,
        "run": cmd_run,
        "trace": cmd_trace,
        "protocols": cmd_protocols,
        "scenario": cmd_scenario,
        "report": cmd_report,
        "sweep": cmd_sweep,
        "bench": cmd_bench,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

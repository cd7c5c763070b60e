"""Deterministic schedule explorer for the service layer.

The await-atomicity rule (:mod:`repro.lint.interleave`) proves the
*absence* of a torn read-modify-write statically; this module is the
runtime half of that tentpole — it makes the schedules the rule reasons
about actually *happen*.  Three levers turn the cooperative event loop
from "whatever order asyncio picks" into a seeded adversary:

1. :class:`ShuffleEventLoop` — a ``SelectorEventLoop`` that permutes the
   ready-callback queue with a seeded RNG on every ``call_soon``, so the
   de-facto FIFO scheduling order (which real programs must not rely on,
   and which hides most interleaving bugs) is replaced by a different
   legal order per seed.
2. A *preempting* loopback transport — every connection endpoint yields
   the event loop 0–N extra times before each send/receive, widening
   the suspension windows at exactly the points the CFG marks as
   suspension points, and answers ``writable()`` with a seeded coin so
   peer links alternate between their inline write-through and their
   writer task mid-stream.
3. A pre-generated per-seed workload (puts and causally-chained reads
   from one client per site) over a :class:`~repro.service.harness.
   ServiceCluster` with ``sanitize=True``, so the Full-Track oracle
   shadow-checks every apply under every explored schedule.

:func:`explore_schedules` sweeps a seed range and reports one
:class:`ScheduleOutcome` per seed; ``python -m repro.verify.schedules``
is the ``make interleave-smoke`` entry point (exit 1 on any violation).
A seeded mutant server driven to a reproduced ``SanitizerViolation``
lives in ``tests/integration/test_schedule_explorer.py``.

Layering: ``repro.verify`` ranks below ``repro.service``, so every
service import in here is function-local (the explorer is a consumer of
the service layer the way tests are, not a dependency of it).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SanitizerViolation


# ======================================================================
# the seeded adversarial event loop
# ======================================================================
class ShuffleEventLoop(asyncio.SelectorEventLoop):
    """``SelectorEventLoop`` with a seeded, permuted ready queue.

    asyncio runs ready callbacks in FIFO order.  That order is an
    implementation detail — any permutation of the ready set is a legal
    cooperative schedule — but the FIFO habit masks interleaving bugs
    because the same (benign) order repeats on every run.  This loop
    reshuffles ``_ready`` after each ``call_soon`` with a
    ``numpy`` ``Generator``, so each seed explores one reproducible
    alternative schedule.  Timer callbacks (``call_at``/``call_later``)
    still fire in time order; only same-tick ordering is permuted.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self._shuffle_rng = rng

    def _shuffle_ready(self) -> None:
        ready = self._ready  # type: ignore[attr-defined]
        n = len(ready)
        if n > 1:
            items = list(ready)
            ready.clear()
            for i in self._shuffle_rng.permutation(n):
                ready.append(items[i])

    def call_soon(
        self, callback: Callable[..., Any], *args: Any, context: Any = None
    ) -> Any:
        handle = super().call_soon(callback, *args, context=context)
        self._shuffle_ready()
        return handle


# ======================================================================
# preempting loopback transport (deferred-import factory)
# ======================================================================
def make_preempting_loopback(
    rng: np.random.Generator, max_yields: int = 2, metrics: Any = None
) -> Any:
    """Build a :class:`~repro.service.transport.LoopbackTransport`
    subclass instance whose connections yield the loop 0–``max_yields``
    extra times before every send and receive.

    Each yield is an ``await asyncio.sleep(0)`` — a pure suspension
    point, exactly what the static analysis models — so the windows
    between a server's read of shared state and its write get populated
    with other runnable tasks instead of staying empty by luck.

    Every endpoint draws a fixed per-connection *latency* (0 to
    ``max_yields`` yields per operation, plus small per-op jitter) when
    it is created.  The asymmetry is the point: i.i.d. per-op stalls can
    never reorder a single-hop delivery past a multi-hop causal chain
    (the chain pays the same stall on every leg), but one slow link
    against fast everything-else reorders deliveries the way a congested
    WAN path does — which is what parks updates and opens the windows
    the explorer is hunting in.
    """
    from repro.service.transport import Connection, LoopbackTransport

    class _PreemptingConnection(Connection):
        """Delegating wrapper that injects seeded yields around I/O."""

        def __init__(self, inner: Connection) -> None:
            self._inner = inner
            # bimodal: most connections are fast (so causal chains march
            # on in a few ticks), an occasional one is pinned at the
            # maximum (the congested link whose deliveries arrive late)
            roll = rng.random()
            if roll < 0.625:
                self._latency = 0
            elif roll < 0.875:
                self._latency = int(rng.integers(1, 5))
            else:
                self._latency = max_yields

        async def _preempt(self) -> None:
            for _ in range(self._latency + int(rng.integers(0, 3))):
                await asyncio.sleep(0)

        # the codec state must be the *inner* connection's — the server
        # negotiates on the wrapper, the loopback encodes on the inner
        @property
        def codec(self) -> Any:
            return self._inner.codec

        @property
        def wire_version(self) -> int:
            return self._inner.wire_version

        @property
        def agreed_version(self) -> int:
            return self._inner.agreed_version

        def negotiate(self, codec: Any, agreed: Optional[int] = None) -> None:
            self._inner.negotiate(codec, agreed)
            # the wrapper only injects yields and never looks inside a
            # frame, so it takes pre-encoded frames and hands out
            # one-pass decodes exactly as the inner endpoint does: the
            # explorer runs the path that ships
            self.one_pass = self._inner.one_pass

        async def send(self, frame: Dict[str, Any]) -> None:
            await self._preempt()
            await self._inner.send(frame)

        async def send_many(self, frames: List[Dict[str, Any]]) -> None:
            await self._preempt()
            await self._inner.send_many(frames)

        # seeded coin: half the link flushes write through inline, the
        # rest fall back to the writer task and its preempted send_many
        # — so a sweep interleaves both paths on the same connection
        def writable(self) -> bool:
            return bool(rng.random() < 0.5) and self._inner.writable()

        def write_many(self, frames: List[Dict[str, Any]]) -> None:
            self._inner.write_many(frames)

        async def recv(self) -> Optional[Dict[str, Any]]:
            frame = await self._inner.recv()
            await self._preempt()
            return frame

        async def recv_many(self) -> Optional[List[Dict[str, Any]]]:
            frames = await self._inner.recv_many()
            await self._preempt()
            return frames

        async def recv_message(self, itab: Any = None, link: Any = None) -> Any:
            message = await self._inner.recv_message(itab, link)
            await self._preempt()
            return message

        async def recv_messages(
            self, itab: Any = None, link: Any = None
        ) -> Optional[List[Any]]:
            messages = await self._inner.recv_messages(itab, link)
            await self._preempt()
            return messages

        async def close(self) -> None:
            await self._inner.close()

        @property
        def peer(self) -> str:
            return self._inner.peer

    class _PreemptingLoopback(LoopbackTransport):
        """Loopback whose endpoints preempt.  Subclassing (rather than
        wrapping) keeps the harness's ``isinstance(transport,
        LoopbackTransport)`` paths — ``stop``, ``kill_site`` — working
        unchanged on the real endpoint registry."""

        async def listen(self, address: str, handler: Any) -> Any:
            async def preempting_handler(conn: Connection) -> None:
                await handler(_PreemptingConnection(conn))

            return await super().listen(address, preempting_handler)

        async def connect(self, address: str) -> Connection:
            return _PreemptingConnection(await super().connect(address))

    return _PreemptingLoopback(metrics=metrics)


# ======================================================================
# workloads
# ======================================================================
#: one client operation: ("put", var, value) or ("get", var)
Op = Tuple[str, str, int]


def generate_workload(
    rng: np.random.Generator,
    variables: Sequence[str],
    n_sites: int,
    ops_per_site: int,
) -> Dict[int, List[Op]]:
    """Seeded per-site op lists: ~60% puts, ~40% reads.

    Reads are what chain causality *across* sites (a read return merges
    the producing write's past into the reader's), so a workload of puts
    alone would never park an update — and a schedule explorer that
    never parks anything exercises none of the interesting windows.
    """
    ops: Dict[int, List[Op]] = {}
    value = 0
    for site in range(n_sites):
        mine: List[Op] = []
        for _ in range(ops_per_site):
            var = variables[int(rng.integers(0, len(variables)))]
            if rng.random() < 0.6:
                value += 1
                mine.append(("put", var, value))
            else:
                mine.append(("get", var, 0))
        ops[site] = mine
    return ops


async def _run_site_client(cluster: Any, site: int, ops: List[Op]) -> None:
    client = cluster.client(home=site)
    try:
        for kind, var, value in ops:
            if kind == "put":
                await client.put(var, value)
            else:
                await client.get(var)
    finally:
        await client.close()


# ======================================================================
# the sweep
# ======================================================================
@dataclass(frozen=True)
class ScheduleOutcome:
    """What one seeded schedule did."""

    seed: int
    ok: bool
    error: str = ""  #: exception class name when not ok
    detail: str = ""  #: first line of the failure message

    def __str__(self) -> str:
        if self.ok:
            return f"seed {self.seed}: clean"
        return f"seed {self.seed}: {self.error}: {self.detail}"


async def _run_one_schedule(
    seed: int,
    *,
    n_sites: int,
    n_variables: int,
    ops_per_site: int,
    max_yields: int,
    protocol: str,
    replication_factor: Optional[int],
    server_cls: Optional[type],
    quiesce_timeout: float,
) -> None:
    from repro.service.harness import ServiceCluster

    rng = np.random.default_rng(seed)
    transport = make_preempting_loopback(rng, max_yields=max_yields)
    cluster = ServiceCluster(
        n_sites,
        n_variables,
        protocol=protocol,
        replication_factor=replication_factor,
        sanitize=True,
        transport=transport,
        seed=seed,
        server_cls=server_cls,
    )
    ops = generate_workload(rng, cluster.variables, n_sites, ops_per_site)
    try:
        async with cluster:
            await asyncio.gather(
                *(
                    _run_site_client(cluster, site, ops[site])
                    for site in range(n_sites)
                )
            )
            await cluster.quiesce(timeout=quiesce_timeout)
    except Exception:
        # a violation raised inside a connection-handler task surfaces
        # to the workload only as collateral damage (EOF at the client,
        # a quiesce timeout) — the durable record is authoritative
        if cluster.sanitizer is not None and cluster.sanitizer.first_violation:
            raise cluster.sanitizer.first_violation from None
        raise
    if cluster.sanitizer is not None and cluster.sanitizer.first_violation:
        raise cluster.sanitizer.first_violation


def _quiet_sanitizer_violations(
    loop: asyncio.AbstractEventLoop, context: Dict[str, Any]
) -> None:
    """Loop exception handler: a violation that killed a connection
    handler is already captured durably (``sanitizer.first_violation``)
    and re-raised by the schedule runner — the "task exception was never
    retrieved" report would be duplicate noise.  Everything else keeps
    the default treatment."""
    if isinstance(context.get("exception"), SanitizerViolation):
        return
    loop.default_exception_handler(context)


def run_schedule(seed: int, **kwargs: Any) -> ScheduleOutcome:
    """Run one seeded schedule on a fresh :class:`ShuffleEventLoop`."""
    loop = ShuffleEventLoop(np.random.default_rng(seed ^ 0x5EED))
    loop.set_exception_handler(_quiet_sanitizer_violations)
    try:
        loop.run_until_complete(_run_one_schedule(seed, **kwargs))
    except SanitizerViolation as exc:
        return ScheduleOutcome(
            seed, False, "SanitizerViolation", str(exc).splitlines()[0]
        )
    except Exception as exc:  # one bad seed must not abort the sweep
        return ScheduleOutcome(
            seed,
            False,
            type(exc).__name__,
            (str(exc) or "failed").splitlines()[0],
        )
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
    return ScheduleOutcome(seed, True)


def explore_schedules(
    seeds: Sequence[int],
    *,
    n_sites: int = 3,
    n_variables: int = 8,
    ops_per_site: int = 16,
    max_yields: int = 64,
    protocol: str = "opt-track",
    replication_factor: Optional[int] = None,
    server_cls: Optional[type] = None,
    quiesce_timeout: float = 5.0,
    stop_on_violation: bool = False,
) -> List[ScheduleOutcome]:
    """Sweep ``seeds``, one independent cluster + event loop per seed.

    Every outcome is reproducible: re-running a failing seed replays the
    same shuffled schedule, the same preemption yields, and the same
    workload (all three draw from generators seeded only by the seed).
    """
    outcomes: List[ScheduleOutcome] = []
    for seed in seeds:
        outcome = run_schedule(
            seed,
            n_sites=n_sites,
            n_variables=n_variables,
            ops_per_site=ops_per_site,
            max_yields=max_yields,
            protocol=protocol,
            replication_factor=replication_factor,
            server_cls=server_cls,
            quiesce_timeout=quiesce_timeout,
        )
        outcomes.append(outcome)
        if stop_on_violation and not outcome.ok:
            break
    return outcomes


# ======================================================================
# CLI (the ``make interleave-smoke`` gate)
# ======================================================================
def _static_summary() -> str:
    """One line tying the sweep to the static analysis: how many async
    functions / suspension points the service layer exposes."""
    import repro.service as service_pkg

    from repro.lint.interleave import suspension_summary

    import ast

    n_funcs = 0
    n_lines = 0
    for path in sorted(Path(service_pkg.__file__).parent.glob("*.py")):
        funcs, lines = suspension_summary(ast.parse(path.read_text()))
        n_funcs += funcs
        n_lines += lines
    return (
        f"service layer: {n_funcs} async functions, "
        f"{n_lines} static suspension points"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.schedules",
        description="sweep seeded adversarial schedules over a loopback "
        "service cluster under the causal sanitizer",
    )
    parser.add_argument("--seeds", type=int, default=50, help="number of seeds")
    parser.add_argument("--start", type=int, default=0, help="first seed")
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--vars", type=int, default=8, dest="n_vars")
    parser.add_argument("--ops", type=int, default=16, help="ops per site")
    parser.add_argument(
        "--max-yields",
        type=int,
        default=64,
        help="max extra event-loop yields injected per transport op",
    )
    parser.add_argument("--protocol", default="opt-track")
    parser.add_argument(
        "--replication-factor", type=int, default=None, dest="rf"
    )
    args = parser.parse_args(argv)

    print(_static_summary())
    outcomes = explore_schedules(
        range(args.start, args.start + args.seeds),
        n_sites=args.sites,
        n_variables=args.n_vars,
        ops_per_site=args.ops,
        max_yields=args.max_yields,
        protocol=args.protocol,
        replication_factor=args.rf,
    )
    bad = [o for o in outcomes if not o.ok]
    for outcome in bad:
        print(outcome, file=sys.stderr)
    print(
        f"swept {len(outcomes)} schedules "
        f"({args.sites} sites, {args.ops} ops/site, "
        f"max {args.max_yields} yields/op): "
        f"{len(outcomes) - len(bad)} clean, {len(bad)} violating"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "ScheduleOutcome",
    "ShuffleEventLoop",
    "explore_schedules",
    "generate_workload",
    "make_preempting_loopback",
    "run_schedule",
]

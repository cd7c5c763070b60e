"""A single run of one workload: gate, windows, metrics, printed report.

:func:`run_end_to_end` is ``--trace 0`` — the correctness pass, then
:data:`spec.WINDOWS` measured windows on fresh clusters with the same
seed; every metric is the median over the windows and is printed with
its sample count, min and max.  :func:`run_per_layer` is ``--trace 1`` —
the correctness pass, one untraced and one traced window of the same
length, the offline codec replay and the microbenches.  End-to-end numbers
are never taken from a traced window.
"""

from __future__ import annotations

import json
import os
import platform
import resource
from typing import Any, Dict, List, Optional, Tuple

import kv
import micro
import simrun
import spec as S
from kv import CorrectnessError
from stats import MIN_BEYOND, MIN_WINDOW_S, Spread, across_windows, percentile
from tracing import CORE_GROUPS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: the simulator has no client and no wall-clock visibility; on ``sim-*``
#: these slots carry the wall-clock cost of one simulated operation so the
#: row is complete — they gate nothing that ``ops_per_s`` does not
SIM_WALL_SLOTS = (
    "put_p50_ms", "put_p90_ms", "get_p50_ms", "get_p90_ms", "visibility_mean_ms"
)


class ShortWindowError(Exception):
    """The requested run is too short for its timings to be reported."""


def _git_commit() -> str:
    """HEAD's commit id read from ``.git`` directly (no subprocess); a
    checkout that is not a git repository reports ``unknown``."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def stamp(spec: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """The environment every report (and trace header) is stamped with."""
    out = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }
    if spec.kind == "kv":
        out["loop"] = "open" if spec.open_rate else "closed"
        out["clients_per_site"] = spec.clients_per_site
        if spec.open_rate:
            out["offered_ops_per_s"] = spec.open_rate
        if spec.durable:
            out["fsync"] = kv.FSYNC_POLICY
    else:
        out["round_ops"] = spec.ops_per_site * spec.sites
    return out


def _ms(samples: List[float], q: float, fast: bool = False) -> Optional[float]:
    """A latency percentile in ms; a ``--fast`` run, whose numbers are
    not judged, reports it from however few samples it has."""
    value = percentile(samples, q, 1 if fast else MIN_BEYOND)
    return None if value is None else value * 1e3


def _window_seconds(seconds: float, fast: bool) -> float:
    window_s = seconds / S.WINDOWS
    if not fast and window_s < MIN_WINDOW_S:
        raise ShortWindowError(
            f"--seconds {seconds:g} gives {window_s:.2f} s windows; timings from "
            f"windows under {MIN_WINDOW_S:g} s are not reported (use --fast for "
            f"a smoke run whose numbers are not judged)"
        )
    return window_s


async def _gate(spec: Any, seed: int, fast: bool) -> None:
    """The correctness pass that precedes every measured run."""
    if spec.kind == "kv":
        await kv.window(
            spec, seed, 30.0, OUT, sanitize=True, recover=False,
            max_ops_per_site=60 if fast else spec.gate_ops_per_site,
        )
    else:
        simrun.gate(spec, seed)


async def _window(
    spec: Any, seed: int, seconds: float, fast: bool, tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """One measured window; a traced service window skips the kill and
    restart (its recovery timings come from the untraced window)."""
    if spec.kind == "kv":
        return await kv.window(
            spec, seed, seconds, OUT, tracer=tracer, recover=tracer is None
        )
    return simrun.window(
        spec, seed, seconds, tracer=tracer,
        ops_per_site=spec.gate_ops_per_site if fast else spec.ops_per_site,
    )


# ----------------------------------------------------------------------
# --trace 0
# ----------------------------------------------------------------------
def _end_to_end(spec: Any, w: Dict[str, Any], fast: bool) -> Tuple[Dict[str, Optional[float]], Dict[str, int]]:
    """The end-to-end metrics of one window and the raw sample count
    behind each (``rss_peak_mb`` is per process and added by the caller)."""
    ops = w["ops"]
    per_s = ops / w["elapsed_s"]
    values: Dict[str, Optional[float]] = {
        "setup_s": w["setup_s"],
        "ops_per_s": per_s,
    }
    counts = {name: ops for name in S.END_TO_END}
    counts["setup_s"] = 1
    if spec.kind == "kv":
        values.update(
            put_p50_ms=_ms(w["put"], 0.5, fast),
            put_p90_ms=_ms(w["put"], 0.9, fast),
            get_p50_ms=_ms(w["get"], 0.5, fast),
            get_p90_ms=_ms(w["get"], 0.9, fast),
            visibility_mean_ms=w["visibility_ms"],
            wire_bytes_per_op=w["wire_bytes"] / ops,
            msgs_per_op=w["messages"] / ops,
        )
        counts.update(
            put_p50_ms=len(w["put"]), put_p90_ms=len(w["put"]),
            get_p50_ms=len(w["get"]), get_p90_ms=len(w["get"]),
            visibility_mean_ms=w["visibility_n"],
        )
    else:
        for name in SIM_WALL_SLOTS:
            values[name] = 1e3 / per_s
        values["wire_bytes_per_op"] = w["wire_bytes_per_op"]
        values["msgs_per_op"] = w["msgs_per_op"]
    return values, counts


async def run_end_to_end(spec: Any, seed: int, seconds: float, fast: bool = False) -> Dict[str, Any]:
    window_s = _window_seconds(seconds, fast)
    await _gate(spec, seed, fast)
    windows = [await _window(spec, seed, window_s, fast) for _ in range(1 if fast else S.WINDOWS)]
    if spec.kind == "sim" and len({w["counts"] for w in windows}) != 1:
        raise CorrectnessError(f"{spec.name}: windows disagree on the Table-I counts")
    folded = across_windows(*zip(*(_end_to_end(spec, w, fast) for w in windows)))
    if spec.kind == "kv" and not fast:
        setups = [w["setup_s"] for w in windows]
        for _ in range(S.EXTRA_SETUPS):
            extra = await kv.window(spec, seed, window_s, OUT, set_up_only=True)
            setups.append(extra["setup_s"])
        folded["setup_s"] = Spread(setups, len(setups), what="set-ups")
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["errors"] for w in windows)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"# {json.dumps(stamp(spec, seed, seconds), sort_keys=True)}")
    print(f"{spec.name}: end-to-end, median of {len(windows)} window(s) of {window_s:g} s")
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, (unit, _, _) in S.END_TO_END.items():
        if name == "rss_peak_mb":
            print(f"  {name:<34} {rss_mb:>14.4f} {unit:<6} n=1       (process peak at the end of the run)")
            metrics[name] = {"value": rss_mb, "unit": unit}
            continue
        spread = folded[name]
        if spread is None:
            raise ShortWindowError(f"{spec.name}: too few samples to report {name}")
        print(spread.fmt(name, unit))
        metrics[name] = {"value": spread.median, "unit": unit}
    print(f"  {'error_frac':<34} {failed / attempted:>14.6f} frac   n={attempted}")
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# --trace 1
# ----------------------------------------------------------------------
async def run_per_layer(spec: Any, seed: int, seconds: float, fast: bool = False) -> Dict[str, Any]:
    window_s = _window_seconds(seconds, fast)
    await _gate(spec, seed, fast)
    plain = await _window(spec, seed, window_s, fast)
    tracer = Tracer()
    traced = await _window(spec, seed, window_s, fast, tracer)
    trace_path = os.path.join(OUT, f"{spec.name}.trace.jsonl")
    tracer.write(trace_path, stamp(spec, seed, seconds))

    layer: Dict[str, float] = {name: 0.0 for name in S.PER_LAYER}
    #: metrics printed with a reason instead of a value (refused percentiles)
    notes: Dict[str, str] = {}
    micros: Dict[str, Spread] = await micro.run_all(OUT, fast)
    ops = traced["ops"]
    budget_us = 1e6 * traced["elapsed_s"] / ops
    layer["loadgen.trace_overhead_frac"] = 1.0 - (ops / traced["elapsed_s"]) / (
        plain["ops"] / plain["elapsed_s"]
    )
    core_us = tracer.seconds_under("core.") / ops * 1e6
    layer["core.us_per_op"] = core_us
    for group, methods in CORE_GROUPS.items():
        names = [f"core.{m}" for m in methods]
        calls = tracer.count(names[-1])
        if calls:
            layer[f"core.{group}_us"] = tracer.seconds(*names) / calls * 1e6
    applies = tracer.count("core.apply_update")
    layer["core.applies_per_op"] = applies / ops
    if applies:
        layer["core.can_apply_per_apply"] = tracer.count("core.can_apply") / applies

    if spec.kind == "sim":
        layer["sim.events_per_s"] = plain["events"] / plain["elapsed_s"]
        layer["sim.residual_us_per_op"] = budget_us - core_us
        layer["sim.activation_delay_mean_ms"] = plain["activation_delay_ms"]
    else:
        _service_layers(spec, plain, traced, tracer, micros, layer, notes, budget_us, core_us)
    for name, result in micros.items():
        layer[name] = result.median

    print(f"# {json.dumps(stamp(spec, seed, seconds), sort_keys=True)}")
    print(
        f"{spec.name}: per-layer, one untraced and one traced window of {window_s:g} s; "
        f"trace in {os.path.relpath(trace_path, ROOT)}"
    )
    for name, (unit, _) in S.PER_LAYER.items():
        if name in micros:
            print(micros[name].fmt(name, unit))
        elif name in notes:
            print(f"  {name:<34} {'n/a':>14} {unit:<6} {notes[name]}")
        else:
            print(f"  {name:<34} {layer[name]:>14.4f} {unit:<6}")
    return {
        "correct": True,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["errors"] + traced["errors"],
        "metrics": {
            name: {"value": layer[name], "unit": unit}
            for name, (unit, _) in S.PER_LAYER.items()
        },
    }


def _service_layers(
    spec: Any, plain: Dict[str, Any], traced: Dict[str, Any], tracer: Tracer,
    micros: Dict[str, Spread], layer: Dict[str, float], notes: Dict[str, str],
    budget_us: float, core_us: float,
) -> None:
    """Fill the service layers.  Self times come from the traced window;
    counts, tail percentiles and the recovery timings come from the
    untraced one, where tracing has not stretched them.  The layers' self
    times plus ``server.residual_us_per_op`` equal the traced window's
    per-operation budget (1e6 / traced ops_per_s) by construction."""
    ops = traced["ops"]
    p_ops = plain["ops"]
    gets = max(len(plain["get"]), 1)

    def us(seconds: float) -> float:
        return seconds / ops * 1e6

    layer["loadgen.us_per_op"] = loadgen_us = us(traced["loadgen_s"])
    layer["client.us_per_op"] = client_us = us(tracer.client_self_time())
    tails = [
        ("client.put_p99_ms", plain["put"], 0.99),
        ("client.get_p99_ms", plain["get"], 0.99),
        ("client.get_p999_ms", plain["get"], 0.999),
    ]
    if spec.open_rate:
        layer["loadgen.pool_exhausted_frac"] = plain["pool_exhausted"] / p_ops
        tails += [
            ("loadgen.late_p50_ms", plain["late"], 0.5),
            ("loadgen.late_p99_ms", plain["late"], 0.99),
        ]
    for name, samples, q in tails:
        value = _ms(samples, q)
        if value is None:
            notes[name] = f"refused: fewer than {MIN_BEYOND} of {len(samples)} samples beyond it"
        else:
            layer[name] = value
    layer["client.failovers_per_kop"] = plain["failovers"] / p_ops * 1e3
    layer["client.remote_get_frac"] = plain["remote_gets"] / gets
    layer["client.error_frac"] = plain["errors"] / plain["attempted"]

    replay = micro.replay_frames(tracer.frames)
    micros["wire.encode_us_per_frame"] = replay["encode_us_per_frame"]
    micros["wire.decode_us_per_frame"] = replay["decode_us_per_frame"]
    frames = tracer.frame_count
    sends = tracer.count("transport.send", "transport.send_many")
    enc_us = replay["encode_us_per_frame"].median * frames / ops
    dec_us = replay["decode_us_per_frame"].median * frames / ops
    layer["wire.encode_us_per_op"] = enc_us
    layer["wire.decode_us_per_op"] = dec_us
    send_us = us(tracer.seconds("transport.send", "transport.send_many"))
    # a loopback send runs the receiver's decode too; a TCP send only encodes
    transport_us = send_us - enc_us - (0.0 if spec.tcp else dec_us)
    layer["transport.send_us_per_op"] = transport_us
    layer["transport.frames_per_op"] = frames / ops
    layer["transport.sends_per_op"] = sends / ops
    layer["transport.frames_per_send"] = frames / sends
    layer["transport.bytes_per_op"] = traced["wire_bytes"] / ops

    updates = micro.replay_updates(tracer.updates, traced["intern_names"])
    micros["wire.update_encode_us"] = updates["update_encode_us"]
    micros["wire.update_decode_us"] = updates["update_decode_us"]
    update_us = (
        updates["update_encode_us"].median + updates["update_decode_us"].median
    ) * len(tracer.updates) / ops
    layer["wire.update_us_per_op"] = update_us
    layer["wire.repl_bytes_per_frame"] = updates["repl_bytes_per_frame"]
    layer["wire.meta_bytes_per_repl"] = updates["meta_bytes_per_repl"]
    by_kind = plain["bytes_by_kind"]
    layer["wire.repl_byte_frac"] = sum(
        v for k, v in by_kind.items() if k.startswith("repl") and "ack" not in k
    ) / sum(by_kind.values())

    durability_us = us(tracer.seconds_under("durability."))
    appends = tracer.count("durability.append", "durability.append_raw")
    if appends:
        wal = plain["wal"]
        layer["durability.append_us"] = tracer.seconds_under("durability.") / appends * 1e6
        layer["durability.append_us_per_op"] = durability_us
        layer["durability.records_per_op"] = wal["records"] / p_ops
        layer["durability.bytes_per_op"] = wal["bytes"] / p_ops
        layer["durability.write_amp"] = wal["bytes"] / plain["value_bytes"]
        layer["durability.fsyncs_per_kop"] = wal["fsyncs"] / p_ops * 1e3
        layer["durability.raw_append_frac"] = wal["raw"] / wal["records"]
    for name, value in plain["recovery"].items():
        layer[f"durability.{name}"] = value

    accounted = (
        loadgen_us + client_us + transport_us + enc_us + dec_us + update_us
        + core_us + durability_us
    )
    layer["server.residual_us_per_op"] = budget_us - accounted
    layer["server.residual_frac"] = (budget_us - accounted) / budget_us
    layer["server.idle_us_per_op"] = max(0.0, us(traced["elapsed_s"] - traced["cpu_s"]))
    layer["server.cpu_us_per_op"] = plain["cpu_s"] / p_ops * 1e6
    layer["server.stale_replies_per_kget"] = plain["stale_replies"] / gets * 1e3
    layer["server.read_timeouts"] = plain["read_timeouts"]
    layer["server.quiesce_s"] = plain["quiesce_s"]

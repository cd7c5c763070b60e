"""Unit tests for ``repro.obs``: registry, recorder, spans, JSONL, replay,
timeline rendering, and the trace CLI."""

import asyncio
import json

import pytest

from repro.core.observe import observe
from repro.errors import ConfigurationError
from repro.obs.export import (
    CONTENT_TYPE,
    parse_exposition,
    parse_metric_key,
    prometheus_text,
    serve_metrics,
)
from repro.obs.flight import FlightRecorder
from repro.obs.jsonl import LoadedTrace, load_trace
from repro.obs.recorder import (
    NullRecorder,
    TraceRecorder,
    decode_write_id,
    encode_write_id,
)
from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.replay import replay_trace
from repro.obs.spans import build_spans
from repro.obs.timeline import (
    format_write_id,
    parse_write_id,
    peak_buffers,
    prune_totals,
    render_report,
    render_update,
    slowest_activations,
)
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.latency import random_wan
from repro.types import WriteId
from repro.workload.generator import WorkloadConfig, generate


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_metric_key_sorts_labels(self):
        assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
        assert metric_key("m", {}) == "m"

    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total", kind="write")
        c.inc()
        c.inc(4)
        assert reg.counter("ops_total", kind="write").value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.gauge("depth", site=0).set(7.5)
        assert reg.gauge("depth", site=0).value == 7.5

    def test_histogram_observe_and_empty_minmax(self):
        h = Histogram((1.0, 10.0))
        d = h.as_dict()
        assert d["min"] is None and d["max"] is None and d["count"] == 0
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["min"] == 0.5 and d["max"] == 50.0
        # per-bucket (non-cumulative) counts, overflow in a separate field
        assert d["buckets"] == [1, 1]
        assert d["inf"] == 1

    def test_histogram_absorb_requires_equal_bounds(self):
        h = Histogram((1.0, 10.0))
        with pytest.raises(ValueError):
            h.absorb_dict(Histogram((1.0, 2.0)).as_dict())

    def test_snapshot_diff_absorb_merged(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        before = reg.snapshot()
        reg.counter("n").inc(2)
        reg.histogram("h", bounds=(1.0,)).observe(2.0)
        delta = reg.diff(before)
        assert delta["counters"]["n"] == 2
        assert delta["histograms"]["h"]["count"] == 1

        other = MetricsRegistry()
        other.counter("n").inc(10)
        other.absorb(reg.snapshot())
        assert other.counter("n").value == 15

        merged = MetricsRegistry.merged([before, other.snapshot()])
        assert merged.counter("n").value == 18

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", site=1).inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=DEFAULT_TIME_BUCKETS_MS).observe(3.0)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap


# ----------------------------------------------------------------------
# recorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_write_id_codec(self):
        wid = WriteId(3, 17)
        assert decode_write_id(encode_write_id(wid)) == wid
        assert encode_write_id(None) is None
        assert decode_write_id(None) is None

    def test_null_recorder_is_disabled(self):
        rec = NullRecorder()
        assert rec.enabled is False
        assert observe(rec) is None  # attaching it leaves the seam off
        assert rec.close() is None

    def test_trace_recorder_records_canonical_json_shapes(self):
        rec = TraceRecorder()
        assert rec.enabled and rec.needs_reasons
        rec.on_issue(1.0, 0, "x", WriteId(0, 1), (1, 2))
        rec.on_buffered(2.0, 1, WriteId(0, 1), ((2, 5),))
        (issue, buffered) = rec.records
        assert issue["d"] == [1, 2] and issue["w"] == [0, 1]
        assert buffered["b"] == [[2, 5]]
        assert json.loads(json.dumps(rec.records)) == rec.records

    def test_close_writes_jsonl_atomically_and_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = TraceRecorder(path=str(path), meta={"protocol": "opt-track"})
        rec.on_issue(0.0, 0, "x", WriteId(0, 1), (1,))
        assert rec.close() == str(path)
        assert rec.close() is None  # second close: no rewrite
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["k"] == "header"
        assert json.loads(lines[1])["k"] == "issue"
        assert not list(tmp_path.glob("*.tmp"))

    def test_prune_uses_bound_clock(self):
        rec = TraceRecorder()
        rec.bind_clock(lambda: 42.0)
        rec.on_prune(0, "condition2", "x", 2, {1: 2}, 1)
        (prune,) = rec.records
        assert prune["t"] == 42.0
        assert prune["z"] == {"1": 2} and prune["kept"] == 1


# ----------------------------------------------------------------------
# spans + timeline
# ----------------------------------------------------------------------
def _sample_records():
    rec = TraceRecorder()
    wid = WriteId(0, 1)
    rec.on_issue(0.0, 0, "x", wid, (0, 1))
    rec.on_send(0.0, 0, 1, wid)
    rec.on_enqueue(0.0, 0, 1, wid, 5.0)
    rec.on_apply(0.0, 0, "x", wid, 0.0)  # writer's local apply
    rec.on_deliver(5.0, 1, wid)
    rec.on_buffered(5.0, 1, wid, ((2, 3),))
    rec.on_wake(9.0, 1, 2, 3, [wid], [])
    rec.on_apply(9.0, 1, "x", wid, 5.0)
    return rec.records, wid


class TestSpans:
    def test_build_spans_folds_the_lifecycle(self):
        records, wid = _sample_records()
        spans = build_spans(records)
        span = spans[wid]
        assert span.issue == 0.0 and span.local_apply == 0.0
        d = span.delivery(1)
        assert d.send == 0.0 and d.deliver == 5.0 and d.apply == 9.0
        assert d.buffered_at == 5.0 and d.blocking == ((2, 3),)
        assert d.buffered_for == 4.0
        assert span.was_buffered and span.max_buffered_for == 4.0
        assert span.wakes == [(9.0, 1, 2)]

    def test_write_id_text_round_trip(self):
        assert parse_write_id(format_write_id(WriteId(3, 17))) == WriteId(3, 17)
        with pytest.raises(ValueError):
            parse_write_id("nope")

    def test_render_update_names_the_blocker(self):
        records, wid = _sample_records()
        text = render_update(build_spans(records)[wid])
        assert "blocked on s2#3" in text
        assert "[+4.000ms buffered]" in text

    def test_top_k_reports(self):
        records, wid = _sample_records()
        spans = build_spans(records)
        rows = slowest_activations(spans, 5)
        assert len(rows) == 1 and rows[0][0] == 4.0
        peaks = peak_buffers(records)
        assert peaks[1] == (1, 5.0)

    def test_prune_totals(self):
        rec = TraceRecorder()
        rec.on_prune(0, "condition2", "x", 3, {1: 2, 2: 1}, 4)
        by_condition, by_sender, kept = prune_totals(rec.records)
        assert by_condition == {"condition2": 3}
        assert by_sender == {1: 2, 2: 1} and kept == 4


# ----------------------------------------------------------------------
# JSONL + replay against a real traced run
# ----------------------------------------------------------------------
def traced_run(tmp_path, protocol="opt-track", p=3):
    path = tmp_path / f"{protocol}.jsonl"
    cfg = ClusterConfig(
        n_sites=5,
        n_variables=8,
        protocol=protocol,
        replication_factor=p,
        seed=3,
        latency=random_wan(5, seed=3),
        think_time=0.5,
        trace=str(path),
    )
    cluster = Cluster(cfg)
    wl = generate(
        WorkloadConfig(
            n_sites=5,
            ops_per_site=40,
            write_rate=0.6,
            placement=cluster.placement,
            seed=3,
        )
    )
    result = cluster.run(wl, check=True)
    assert result.ok
    return cluster, path


class TestJsonlAndReplay:
    def test_load_matches_live_recorder(self, tmp_path):
        cluster, path = traced_run(tmp_path)
        loaded = load_trace(path)
        assert isinstance(loaded, LoadedTrace)
        assert loaded.protocol == "opt-track" and loaded.n_sites == 5
        assert loaded.records == cluster.recorder.records
        assert loaded.span_tree() == cluster.recorder.span_tree()

    def test_replay_passes_the_oracle(self, tmp_path):
        _, path = traced_run(tmp_path)
        loaded = load_trace(path)
        report = replay_trace(loaded)
        assert report.checks_run > 0
        assert report.writes == loaded.kind_counts()["issue"]
        assert "OK" in report.summary()

    def test_replay_infers_the_site_count_of_a_flight_dump(self, tmp_path):
        # a flight dump's header names no n_sites: replay infers it from
        # the highest site the records mention
        cluster = Cluster(
            ClusterConfig(n_sites=5, n_variables=8, protocol="optp", seed=3)
        )
        flight = cluster.recorder = FlightRecorder(capacity=100_000)
        cluster.attach_observers()
        wl = generate(
            WorkloadConfig(
                n_sites=5, ops_per_site=20, placement=cluster.placement, seed=3
            )
        )
        assert cluster.run(wl).ok
        assert flight.dropped == 0
        dump = tmp_path / "flight.jsonl"
        flight.dump(str(dump), "test")
        loaded = load_trace(dump)
        assert loaded.n_sites is None
        report = replay_trace(loaded)
        assert report.n_sites == 5 and report.checks_run > 0
        empty = tmp_path / "empty-flight.jsonl"
        FlightRecorder().dump(str(empty), "test")
        with pytest.raises(ConfigurationError, match="cannot infer site count"):
            replay_trace(load_trace(empty))

    def test_render_report_shows_buffering(self, tmp_path):
        _, path = traced_run(tmp_path)
        text = render_report(load_trace(path), top=3)
        assert "slowest activations" in text
        assert "waiting on" in text  # a named blocking dependency

    def test_load_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ConfigurationError):
            load_trace(empty)
        headerless = tmp_path / "h.jsonl"
        headerless.write_text('{"k": "issue"}\n')
        with pytest.raises(ConfigurationError):
            load_trace(headerless)
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"k": "header", "version": 1}\n{"k": "iss')
        with pytest.raises(ConfigurationError):
            load_trace(torn)

    def test_in_memory_trace_true(self):
        cfg = ClusterConfig(n_sites=3, n_variables=5, protocol="optp", seed=1, trace=True)
        cluster = Cluster(cfg)
        wl = generate(
            WorkloadConfig(
                n_sites=3, ops_per_site=10, placement=cluster.placement, seed=1
            )
        )
        cluster.run(wl)
        assert len(cluster.recorder.records) > 0
        assert cluster.close_trace() is None  # no sink configured


# ----------------------------------------------------------------------
# registry publication end to end
# ----------------------------------------------------------------------
class TestPublication:
    def test_cluster_publishes_run_metrics(self, tmp_path):
        cluster, _ = traced_run(tmp_path)
        snap = cluster.registry.snapshot()
        counters = snap["counters"]
        assert counters["messages_total{kind=update,protocol=opt-track}"] > 0
        assert counters["sim_events_total{protocol=opt-track}"] > 0
        hist = snap["histograms"]["activation_delay_ms{protocol=opt-track}"]
        assert hist["count"] > 0

    def test_runner_rows_carry_and_merge_snapshots(self, tmp_path):
        from repro.analysis.runner import CellSpec, publish_outcomes, run_cells

        spec = CellSpec.make(
            cluster=dict(n_sites=3, n_variables=5, protocol="optp", seed=1),
            workload=dict(n_sites=3, ops_per_site=10, seed=2),
        )
        reg = MetricsRegistry()
        outcomes = run_cells([spec, spec], registry=reg)
        one = outcomes[0].row["registry"]
        total = reg.snapshot()
        key = "ops_total{kind=write,protocol=optp}"
        assert total["counters"][key] == 2 * one["counters"][key] > 0
        # publish_outcomes tolerates legacy rows without a snapshot
        outcomes[0].row.pop("registry")
        reg2 = publish_outcomes(MetricsRegistry(), outcomes)
        assert reg2.snapshot()["counters"][key] == one["counters"][key]


# ----------------------------------------------------------------------
# trace CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_run_trace_render_replay(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "run",
                    "--protocol",
                    "opt-track",
                    "--n",
                    "4",
                    "--q",
                    "8",
                    "--ops",
                    "20",
                    "--trace",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", str(path), "--replay", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest activations" in out and "OK" in out

    def test_trace_json_and_update(self, tmp_path, capsys):
        from repro.cli import main

        _, path = traced_run(tmp_path)
        assert main(["trace", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["buffered_updates"] > 0
        wid = None
        loaded = load_trace(path)
        for span in loaded.span_tree().values():
            if span.was_buffered:
                wid = format_write_id(span.write_id)
                break
        assert main(["trace", str(path), "--update", wid]) == 0
        assert "buffered" in capsys.readouterr().out
        assert main(["trace", str(path), "--update", "s9#999"]) == 1


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_dropped(self):
        fr = FlightRecorder(capacity=4)
        assert fr.enabled is True and fr.needs_reasons is False
        for i in range(10):
            fr.on_deliver(float(i), 0, WriteId(0, i + 1))
        assert len(fr) == 4
        assert fr.recorded == 10 and fr.dropped == 6
        # only the newest history survives, oldest first
        assert [r["t"] for r in fr.records()] == [6.0, 7.0, 8.0, 9.0]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_materialization_matches_trace_recorder(self):
        # the hook surface is TraceRecorder record for record: the same
        # lifecycle driven into both must materialize identically
        trace = TraceRecorder()
        flight = FlightRecorder()
        wid = WriteId(0, 1)
        for rec in (trace, flight):
            rec.bind_clock(lambda: 42.0)
            rec.on_issue(0.0, 0, "x", wid, (0, 1))
            rec.on_send(0.0, 0, 1, wid)
            rec.on_enqueue(0.0, 0, 1, wid, 5.0)
            rec.on_hold(0.5, 0, 1, wid)
            rec.on_drop(0.6, 0, 1, wid)
            rec.on_deliver(5.0, 1, wid)
            rec.on_buffered(5.0, 1, wid, ((2, 3),))
            rec.on_wake(9.0, 1, 2, 3, [wid], [wid])
            rec.on_apply(9.0, 1, "x", wid, 5.0)
            rec.on_read(9.5, 1, "x", wid)
            rec.on_prune(1, "condition1", "x", 2, {0: 1}, 1)
        assert flight.records() == trace.records
        assert json.loads(json.dumps(flight.records())) == flight.records()

    def test_dump_is_a_loadable_trace(self, tmp_path):
        fr = FlightRecorder(capacity=8, meta={"site": 3, "source": "flight"})
        fr.bind_clock(lambda: 7.0)
        wid = WriteId(3, 1)
        fr.on_issue(0.0, 3, "x", wid, (3, 1))
        fr.on_apply(1.0, 3, "x", wid, 0.0)
        path = tmp_path / "flight.jsonl"
        assert fr.dump(str(path), "chaos-kill-site") == str(path)
        loaded = load_trace(path)
        head = loaded.header["flight"]
        assert head["reason"] == "chaos-kill-site"
        assert head["capacity"] == 8
        assert head["recorded"] == 2 and head["dropped"] == 0
        assert head["dumped_at_ms"] == 7.0
        assert [r["k"] for r in loaded.records] == ["issue", "apply"]
        # every existing consumer renders a dump unchanged
        report = render_report(loaded)
        assert "apply=1" in report and "1 updates" in report
        assert not list(tmp_path.glob("*.tmp"))

    def test_dump_is_repeatable(self, tmp_path):
        fr = FlightRecorder(capacity=4)
        wid = WriteId(0, 1)
        fr.on_deliver(1.0, 0, wid)
        first = tmp_path / "one.jsonl"
        fr.dump(str(first), "sanitizer-violation")
        fr.on_deliver(2.0, 0, WriteId(0, 2))
        second = tmp_path / "two.jsonl"
        fr.dump(str(second), "handler-error")
        assert len(load_trace(first)) == 1
        assert len(load_trace(second)) == 2
        assert load_trace(second).header["flight"]["reason"] == "handler-error"

    def test_bench_gate_counts_the_rings_calls(self, monkeypatch):
        """``make bench``'s flight verdict is a call count, so it is the
        same on every run: the ring is inside its budget, and a ring
        that records every event twice is not."""
        from repro.analysis.hotpaths import FLIGHT_CALL_BUDGET, bench_trace_overhead
        from repro.core.observe import EVENTS
        from repro.obs import flight

        ledger = bench_trace_overhead(fast=True, repeat=1)
        assert ledger["flight_within_budget"] is True
        assert 0 < ledger["flight_calls_overhead_pct"] <= FLIGHT_CALL_BUDGET * 100

        def twice(handler):
            def record(self, *args):
                handler(self, *args)
                handler(self, *args)

            return record

        handlers = {
            name: twice(getattr(FlightRecorder, name))
            for name in ("on_" + event for event in EVENTS)
            if hasattr(FlightRecorder, name)
        }
        monkeypatch.setattr(
            flight, "FlightRecorder", type("Twice", (FlightRecorder,), handlers)
        )
        doubled = bench_trace_overhead(fast=True, repeat=1)
        assert doubled["flight_within_budget"] is False
        assert doubled["flight_calls_overhead_pct"] > FLIGHT_CALL_BUDGET * 100


class TestFanout:
    def test_drops_disabled_members_at_construction(self):
        assert observe(NullRecorder(), None) is None
        flight = FlightRecorder()
        assert observe(NullRecorder(), flight).subscribers == (flight,)

    def test_fans_hooks_to_every_member(self):
        trace = TraceRecorder()
        flight = FlightRecorder()
        fan = observe(trace, flight)
        # reasons propagate: the trace recorder wants them
        assert fan.needs_reasons is True
        wid = WriteId(0, 1)
        fan.on_issue(0.0, 0, "x", wid, (1,), "v", False)
        fan.on_apply(1.0, 1, "x", wid, 0.0)
        fan.on_receipt(1.0, 1, 0, "update", "x")  # no recorder takes it
        assert len(trace.records) == 2 and len(flight) == 2
        assert flight.records() == trace.records

    def test_single_subscriber_is_called_directly(self):
        flight = FlightRecorder()
        fan = observe(flight)
        # no fan-out frame between the emit and the one subscriber
        assert fan.on_apply == flight.on_apply

    def test_flight_only_fanout_needs_no_reasons(self):
        fan = observe(NullRecorder(), FlightRecorder())
        assert fan.needs_reasons is False
        assert len(fan.subscribers) == 1

    def test_bind_clock_reaches_members(self):
        flight = FlightRecorder()
        fan = observe(flight)
        fan.bind_clock(lambda: 9.0)
        fan.on_prune(0, "condition2", "x", 1, {0: 1}, 0)
        (prune,) = flight.records()
        assert prune["t"] == 9.0


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestExposition:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("service_applies_total", site=0).inc(3)
        reg.counter("service_applies_total", site=1).inc(5)
        reg.gauge("parked_updates_count", site=0).set(2)
        h = reg.histogram("visibility_latency_ms", bounds=(1.0, 10.0), site=1, origin=0)
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        return reg

    def test_parse_metric_key_inverts_canonical_keys(self):
        assert parse_metric_key("m") == ("m", {})
        assert parse_metric_key("m{a=1,b=x}") == ("m", {"a": "1", "b": "x"})

    def test_counters_and_gauges_export_with_type_lines(self):
        text = prometheus_text(self._registry().snapshot())
        lines = text.splitlines()
        assert "# TYPE service_applies_total counter" in lines
        assert 'service_applies_total{site="0"} 3' in lines
        assert 'service_applies_total{site="1"} 5' in lines
        assert "# TYPE parked_updates_count gauge" in lines
        assert 'parked_updates_count{site="0"} 2.0' in lines
        # one TYPE line per metric name, not per labelled series
        assert sum(1 for l in lines if l.startswith("# TYPE service_applies_total")) == 1

    def test_histogram_buckets_are_cumulative(self):
        text = prometheus_text(self._registry().snapshot())
        lines = text.splitlines()
        # per-bucket counts 1,1 + overflow 1 -> cumulative 1,2 and +Inf=3
        assert 'visibility_latency_ms_bucket{origin="0",site="1",le="1"} 1' in lines
        assert 'visibility_latency_ms_bucket{origin="0",site="1",le="10"} 2' in lines
        assert 'visibility_latency_ms_bucket{origin="0",site="1",le="+Inf"} 3' in lines
        assert 'visibility_latency_ms_sum{origin="0",site="1"} 55.5' in lines
        assert 'visibility_latency_ms_count{origin="0",site="1"} 3' in lines

    def test_exposition_round_trips_through_the_parser(self):
        text = prometheus_text(self._registry().snapshot())
        samples = parse_exposition(text)
        assert samples['service_applies_total{site="0"}'] == 3.0
        assert samples['visibility_latency_ms_count{origin="0",site="1"}'] == 3.0

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not exposition text\n")
        with pytest.raises(ValueError):
            parse_exposition("# BOGUS comment shape here\n")
        with pytest.raises(ValueError):
            parse_exposition("metric_name{a=b} not-a-number\n")

    def test_serve_metrics_answers_a_raw_http_get(self):
        async def main():
            reg = MetricsRegistry()
            reg.counter("scrapes_total").inc()
            refreshed = []
            server = await serve_metrics(
                reg, port=0, refresh=lambda: refreshed.append(1)
            )
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            server.close()
            await server.wait_closed()
            return raw.decode(), refreshed

        raw, refreshed = run(main())
        head, _, body = raw.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.1 200 OK")
        assert CONTENT_TYPE in head
        # the refresh hook ran before the snapshot was rendered
        assert refreshed == [1]
        assert parse_exposition(body)["scrapes_total"] == 1.0


# ----------------------------------------------------------------------
# registry snapshots across service epochs
# ----------------------------------------------------------------------
class TestRegistryEpochs:
    def test_snapshots_are_deterministically_sorted(self):
        reg = MetricsRegistry()
        # insert in non-sorted order: the snapshot must not leak it
        reg.counter("b_total", site=2).inc()
        reg.counter("a_total", site=1).inc()
        reg.counter("a_total", site=0).inc()
        reg.gauge("z_count").set(1)
        reg.gauge("m_count").set(2)
        snap = reg.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])
        assert list(snap["gauges"]) == sorted(snap["gauges"])
        # same series re-registered in any order: identical snapshot
        other = MetricsRegistry()
        other.counter("a_total", site=0).inc()
        other.gauge("m_count").set(2)
        other.counter("a_total", site=1).inc()
        other.gauge("z_count").set(1)
        other.counter("b_total", site=2).inc()
        assert other.snapshot() == snap

    def test_absorb_merges_across_epochs(self):
        # a site restart starts a new registry epoch; absorbing each
        # epoch's final snapshot must accumulate counters and histograms
        # without double-counting gauges (last write wins)
        epochs = []
        for epoch in (1, 2):
            reg = MetricsRegistry()
            reg.counter("service_applies_total", site=0).inc(10 * epoch)
            reg.gauge("parked_updates_count", site=0).set(epoch)
            reg.histogram(
                "visibility_latency_ms", bounds=(1.0, 10.0), site=0
            ).observe(float(epoch))
            epochs.append(reg.snapshot())
        total = MetricsRegistry()
        for snap in epochs:
            total.absorb(snap)
        out = total.snapshot()
        assert out["counters"]["service_applies_total{site=0}"] == 30
        assert out["gauges"]["parked_updates_count{site=0}"] == 2
        hist = out["histograms"]["visibility_latency_ms{site=0}"]
        assert hist["count"] == 2 and hist["total"] == 3.0
        # merged() over the same snapshots agrees
        merged = MetricsRegistry.merged(epochs).snapshot()
        assert merged["counters"] == out["counters"]
        assert merged["histograms"] == out["histograms"]

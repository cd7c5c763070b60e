"""Smoke test of the benchmark itself (``python -m pytest perf -q``).

A ``--fast`` pass — one short window per run, numbers not judged — checks
that every metric ``BENCHMARK.json`` names is emitted for every workload,
that the declared names are well-formed and agree with ``spec.py``, and
that every trace file parses with all parent ids resolvable.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import report  # noqa: E402
import spec as S  # noqa: E402
from tracing import read_trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_spec(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["perf"]
    assert declared["command"] == ["python3", "perf/run.py"]
    assert declared["run_seconds"] == S.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in S.WORKLOADS
    ]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == S.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == S.PER_LAYER
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", [w.name for w in S.WORKLOADS])
def test_fast_pass_emits_every_metric(workload, declared):
    spec = S.BY_NAME[workload]
    end_to_end = asyncio.run(report.run_end_to_end(spec, 7, S.FAST_SECONDS, fast=True))
    assert end_to_end["correct"] and end_to_end["failed"] == 0
    assert end_to_end["attempted"] >= 1
    assert set(end_to_end["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in end_to_end["metrics"].values())

    per_layer = asyncio.run(report.run_per_layer(spec, 7, S.FAST_SECONDS, fast=True))
    assert per_layer["correct"] and per_layer["failed"] == 0
    assert set(per_layer["metrics"]) == {m["name"] for m in declared["per_layer"]}
    if spec.kind == "kv":
        # the layers and the residual add up to the per-op budget
        assert per_layer["metrics"]["server.residual_frac"]["value"] < 1.0

    header, spans = read_trace(os.path.join(HERE, "out", f"{workload}.trace.jsonl"))
    assert header["workload"] == workload and header["spans_written"] == len(spans)
    ids = {s[0] for s in spans}
    assert spans and all(s[4] is None or s[4] in ids for s in spans)
    if spec.kind == "kv":
        parents = {s[4] for s in spans if s[4] is not None}
        assert parents and all(
            s[1].startswith("client.") for s in spans if s[0] in parents
        )


def test_cli_prints_result_line_last():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sim-shallow",
         "--seed", "9", "--trace", "0", "--fast"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "setup_s" in result["metrics"]


def test_short_windows_are_refused():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "sim-shallow",
         "--seconds", "3", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert out.returncode != 0 and "not reported" in out.stderr

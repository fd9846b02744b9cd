"""Tests of the benchmark itself: span arithmetic, the percentile rule, and a
tiny-season smoke run of every workload through ``run.py``.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.union_length([(5, 6), (0, 10)]) == 10.0


def test_self_time_subtracts_covered_part_only():
    # children overlap each other and one sticks out past the parent's end
    children = [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0), (20.0, 21.0)]
    assert tracing.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert tracing.self_time(0.0, 10.0, children, aggregated=0.5) == pytest.approx(3.5)
    assert tracing.self_time(0.0, 10.0, []) == 10.0


def test_tracer_records_self_time_of_nested_spans():
    tracer = tracing.Tracer("stage")
    inner = tracer.wrap("cli.write_shot_rows", lambda rows, path, with_prob=False: None)
    tracer.span("cli.main", lambda: inner([], "x"))
    doc = tracer.to_json()
    outer, child = sorted(doc["spans"], key=lambda s: s["parent"])
    assert child["parent"] == outer["id"]
    assert outer["self"] == pytest.approx((outer["end"] - outer["start"])
                                          - (child["end"] - child["start"]))


def test_percentile_rule_needs_ten_samples_beyond():
    assert tracing.tail_percentile(1000) == 99.0      # ranks 991..1000 lie beyond p99
    assert tracing.tail_percentile(999) == 95.0       # only 9 beyond p99
    assert tracing.tail_percentile(10000) == 99.9
    assert tracing.tail_percentile(10000, highest=95.0) == 95.0
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(19) is None
    assert tracing.percentile(list(range(1, 101)), 99.0) == 99
    assert tracing.capped_percentile(list(range(1, 101)), 99.0) == (90.0, 90)
    assert tracing.capped_percentile([3.0], 99.0) == (50.0, 3.0)
    assert tracing.capped_percentile([], 95.0) == (95.0, 0.0)


def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert doc["paths"] == ["perfbench"]


def _run(tmp_path: Path, workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--shape", "tiny",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("perfbench-detail "))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["errors"]
    return detail, result


@pytest.mark.parametrize("workload", ["simulate", "fit"])
def test_smoke_untraced(tmp_path, workload):
    detail, result = _run(tmp_path, workload, 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(detail["setup_walls_s"]) == run.SETUP_REPEATS
    assert detail["checks"] and all(c["ok"] for c in detail["checks"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(tmp_path, workload):
    detail, result = _run(tmp_path, workload, 1)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["cli.startup_s"] > 0 and metrics["cli.self_s"] > 0
    spans = json.loads((BENCH.parent / detail["span_file"]).read_text(encoding="utf-8"))
    assert spans["processes"] and all(p["spans"] for p in spans["processes"])
    if workload == "simulate":
        assert metrics["sim.frames_written"] > 0 and metrics["ingest.rows"] == 0
    if workload == "fit":
        # the accounting the checks gate on, seen from inside the layers
        assert metrics["ingest.rows"] == metrics["sim.frames_written"]
        assert metrics["trajectory.fit_calls"] == metrics["ingest.shots_extracted"]
        assert metrics["factors.rows"] + metrics["factors.rejected"] == metrics["trajectory.retained"]
    if workload == "rank":
        # fit_effects is reached from cli and from evaluate: both names are wrapped
        assert metrics["evaluate.subsample_mse_s"] > 0
        assert metrics["effects.fit_calls"] > 3
        assert metrics["ingest.rows"] == 0 and metrics["trajectory.fit_calls"] == 0


def test_failing_checks_fail_each_invocation_once(tmp_path, monkeypatch):
    def three_failures(out, shape, report):
        for i in range(3):
            report.check(f"always_fails.{i}", False, "fed by the test")

    monkeypatch.setitem(run.checks.INVARIANTS, "fit", three_failures)
    out = run.run("fit", 5, 0.0, False, "tiny", tmp_path / "out")
    result, detail = out["result"], out["detail"]
    # three set-ups pass; the one fit invocation fails three checks but counts once
    assert (result["attempted"], result["failed"]) == (run.SETUP_REPEATS + 1, 1)
    assert detail["error_rate"] == pytest.approx(1 / (run.SETUP_REPEATS + 1))
    assert not result["correct"]
    assert len([e for e in detail["errors"] if "always_fails" in e]) == 3


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

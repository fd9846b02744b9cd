"""End-to-end benchmark of the ``shotarc`` CLI pipeline, one workload per run.

Usage:
    python3 perfbench/run.py --workload {simulate,fit,rank} --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout: the program under test is
``src/shotarc`` next to this directory, started as ``python -m shotarc`` with
``PYTHONPATH=src``.  Each CLI stage runs in its own process, one at a time.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, then repeats the
timed stages for ``--seconds`` (at least once) and reports end-to-end
metrics: shots/s from the median iteration wall, the largest child peak RSS
(from each child's own rusage) and the median set-up time.

``--trace 1`` sets up once under tracing, runs one untraced and one traced
iteration, and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_frac``.  The spans go to ``<out-dir>/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``perfbench-detail``, holds the per-stage times, checks and
environment that ``suite.py`` reads.  The benchmark exits 2 without a result
when the checkout holds no ``src/shotarc``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Stage, setup_stage, timed_stages  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0          # every child is killed by then, so a run ends within 180 s

END_TO_END = {"shots_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
STAGES = ("simulate", "fit", "train", "predict", "effects", "evaluate")

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "sim.simulate_season_s": "s", "sim.write_season_s": "s",
    "sim.frames_written": "count", "sim.bytes_written": "bytes",
    "ingest.load_tracking_s": "s", "ingest.rows": "count", "ingest.rows_rejected": "count",
    "ingest.us_per_row": "us", "ingest.load_events_s": "s", "ingest.load_roster_s": "s",
    "ingest.extract_shot_events_s": "s", "ingest.shots_extracted": "count",
    "ingest.shots_rejected": "count",
    "trajectory.fit_trajectory_s": "s", "trajectory.fit_calls": "count",
    "trajectory.fit_errors": "count", "trajectory.fit_us_p50": "us", "trajectory.fit_us_p99": "us",
    "trajectory.filter_shots_s": "s", "trajectory.retained": "count",
    "trajectory.retention": "ratio",
    "factors.fit_path_line_s": "s", "factors.compute_shot_factors_s": "s",
    "factors.rows": "count", "factors.rejected": "count",
    "makeprob.train_s": "s", "makeprob.predict_s": "s", "makeprob.rows": "count",
    "effects.fit_effects_s": "s", "effects.fit_calls": "count", "effects.rows_fitted": "count",
    "effects.fit_ms_p50": "ms", "effects.fit_ms_p95": "ms", "effects.rank_deficient": "count",
    "effects.apply_min_shots_filter_s": "s", "effects.rank_players_s": "s",
    "evaluate.subsample_mse_s": "s", "evaluate.split_half_rank_correlation_s": "s",
    "evaluate.variance_comparison_s": "s", "evaluate.make_pct_by_depth_bin_s": "s",
    "evaluate.replicates_used": "count", "evaluate.replicates_dropped": "count",
    "cli.read_shot_rows_s": "s", "cli.read_shot_rows_calls": "count",
    "cli.write_shot_rows_s": "s", "cli.write_manifest_s": "s", "cli.bytes_hashed": "bytes",
    "cli.startup_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# --- child processes ---------------------------------------------------------------------

class Runner:
    """Launches stage processes one at a time and keeps their timings and failures.

    Invocations are numbered from 1.  ``failed`` counts failed invocations, not
    failed checks: an invocation marked failed by several checks counts once.
    """

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed_ids: set[int] = set()
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def launch(self, stage: Stage, spans: Path | None = None) -> dict:
        """Run one stage; wall time from spawn to reap, peak RSS from its own rusage."""
        self.attempted += 1
        ident = self.attempted
        log = self.work / "logs" / f"{ident:03d}-{stage.stage}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.monotonic()
        if spans is not None:
            cmd = [sys.executable, str(BENCH / "tracing.py"), "--spans", str(spans), "--t0", repr(t0),
                   "--stage", stage.stage, "--entry", stage.entry, "--", *stage.argv]
        elif stage.entry == "prepare":
            cmd = [sys.executable, str(BENCH / "prepare.py"), *stage.argv]
        else:
            cmd = [sys.executable, "-m", "shotarc", *stage.argv]
        with log.open("wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail([ident], f"{stage.stage} {' '.join(stage.argv[:1])} exited {proc.returncode}; "
                               f"see {log}")
        return {"id": ident, "stage": stage.stage, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "rc": proc.returncode}

    def fail(self, ids, message: str) -> None:
        """Mark the invocations numbered ``ids`` failed."""
        self.failed_ids.update(ids)
        self.errors.append(message)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


# --- one workload run ---------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, shape_name: str, out_dir: Path):
        self.workload = workload
        self.wl = WORKLOADS[workload]
        self.shape = self.wl.tiny if shape_name == "tiny" else self.wl.shape
        self.shape_name = shape_name
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.work = out_dir / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.runner = Runner(self.work, time.monotonic() + DEADLINE_S)
        self.checks = checks.Report()
        self.fingerprints: dict[str, dict] = {}
        # recorded values apply to the default seed and shape only
        self.golden = None
        self.golden_summary = None
        if seed == DEFAULT_SEED and shape_name == "full" and workload in checks.GOLDEN_SUMMARIES:
            golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
            self.golden = golden.get(workload, {})

    # set-up
    def setup(self, spans: Path | None = None) -> float:
        start = time.monotonic()
        proc = self.runner.launch(setup_stage(self.workload, self.shape, self.seed, self.work), spans)
        wall = time.monotonic() - start
        if self.runner.failed:
            return wall
        if self.workload == "fit":
            self.same("setup", checks.manifest_digests(self.work / "season"), [proc["id"]])
        elif self.workload == "rank":
            self.same("setup", {"factors.csv": checks.sha256_file(self.work / "factors.csv")},
                      [proc["id"]])
        return wall

    def same(self, key: str, fingerprint: dict, ids: list[int]) -> None:
        """Byte-identical reruns: every repeat must match the first, else ``ids`` failed."""
        first = self.fingerprints.setdefault(key, fingerprint)
        if not self.checks.check(f"determinism.{key}", first == fingerprint, "rerun digests differ"):
            self.runner.fail(ids, f"{key}: rerun with seed {self.seed} changed output digests")

    # one iteration of the timed stages
    def iterate(self, index: int, traced: bool = False) -> list[dict]:
        out = self.work / f"iter{index}"
        stages = timed_stages(self.workload, self.shape, self.seed, self.work, out)
        procs = []
        for i, stage in enumerate(stages):
            spans = self.work / "spans" / f"iter{index}-{i:02d}-{stage.stage}.json" if traced else None
            if spans is not None:
                spans.parent.mkdir(parents=True, exist_ok=True)
            procs.append(self.runner.launch(stage, spans))
            if procs[-1]["rc"] != 0 or self.runner.expired():
                return procs
        report = checks.Report()
        try:
            checks.INVARIANTS[self.workload](out, self.shape, report)
            if self.golden is not None:
                self.golden_summary = checks.GOLDEN_SUMMARIES[self.workload](out)
                checks.check_golden(self.workload, self.golden_summary, self.golden, report)
            fingerprint = checks.manifest_digests(out)
        except (OSError, ValueError, KeyError) as exc:
            report.check(f"{self.workload}.outputs_readable", False, repr(exc))
            fingerprint = {}
        self.checks.results.extend(report.results)
        # the checks read the outputs of the whole iteration: a failure fails each of its stages once
        ids = [p["id"] for p in procs]
        for failure in report.failures():
            self.runner.fail(ids, f"check {failure['name']} failed: {failure['detail']}")
        self.same("outputs", fingerprint, ids)
        shutil.rmtree(out, ignore_errors=True)
        return procs

    def store_fingerprints(self) -> None:
        """Compare with, or record, the digests of an earlier run of the same seed and code."""
        key = hashlib.sha256(json.dumps(
            [self.workload, self.seed, asdict(self.shape), source_digest()]).encode()).hexdigest()
        path = self.out_dir / "digests" / f"{self.workload}-{self.seed}-{key[:16]}.json"
        if path.exists():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            if not self.checks.check("determinism.across_runs", earlier == self.fingerprints,
                                     f"differs from {path.name}"):
                self.runner.fail(range(1, self.runner.attempted + 1),
                                 f"outputs differ from an earlier run with seed {self.seed}")
        elif self.runner.failed == 0:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.fingerprints, sort_keys=True) + "\n", encoding="utf-8")

    def measure(self) -> tuple[dict, dict]:
        setups = [self.setup() for _ in range(SETUP_REPEATS) if not self.runner.failed]
        iterations: list[list[dict]] = []
        start = time.monotonic()
        while not self.runner.failed and not self.runner.expired():
            iterations.append(self.iterate(len(iterations)))
            walls = [sum(p["wall"] for p in it) for it in iterations]
            if time.monotonic() - start + statistics.median(walls) > self.seconds:
                break
        walls = [sum(p["wall"] for p in it) for it in iterations]
        # a failed run still prints a result (correct: false); absent figures read 0
        metrics = {
            "shots_per_s": self.shape.n_shots / statistics.median(walls) if walls else 0.0,
            "peak_rss_mb": max((p["rss_mb"] for it in iterations for p in it), default=0.0),
            "setup_s": statistics.median(setups) if setups else 0.0,
        }
        detail = {"iterations": len(iterations), "iteration_walls_s": walls, "setup_walls_s": setups,
                  "stages": stage_medians(iterations)}
        return metrics, detail

    def measure_traced(self) -> tuple[dict, dict]:
        spans_dir = self.work / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        self.setup(spans_dir / "setup.json")
        untraced = self.iterate(0) if not self.runner.failed else []
        traced = self.iterate(1, traced=True) if not self.runner.failed else []
        docs = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(spans_dir.glob("*.json"))]
        untraced_wall = sum(p["wall"] for p in untraced)
        traced_wall = sum(p["wall"] for p in traced)
        metrics = layer_metrics(docs)
        metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall \
            if untraced_wall else 0.0
        trace_path = self.out_dir / "trace" / f"{self.workload}-{self.seed}.spans.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({"workload": self.workload, "seed": self.seed,
                                          "processes": docs}) + "\n", encoding="utf-8")
        detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                  "stages": stage_medians([untraced]), "traced_stages": stage_medians([traced]),
                  "layer_split": layer_split(docs),
                  "span_file": os.path.relpath(trace_path, ROOT)}
        return metrics, detail


def stage_medians(iterations: list[list[dict]]) -> dict:
    """Per stage: median over iterations of that stage's summed process wall."""
    per_stage: dict[str, list[float]] = defaultdict(list)
    for it in iterations:
        sums: dict[str, float] = defaultdict(float)
        for p in it:
            sums[p["stage"]] += p["wall"]
        for stage, wall in sums.items():
            per_stage[stage].append(wall)
    return {f"stage.{s}_s": statistics.median(per_stage[s]) for s in STAGES if s in per_stage}


# --- per-layer figures from span files ----------------------------------------------------

def layer_metrics(docs: list[dict]) -> dict:
    """Per-layer metrics summed over every traced process of a run (set-up included)."""
    total: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    errors: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    startup = cli_self = 0.0
    for doc in docs:
        startup += doc["startup_s"]
        for s in doc["spans"]:
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            durations[s["name"]].append(dur)
            if s["error"]:
                errors[s["name"]] += 1
            if s["name"] == "cli.main":
                cli_self += s["self"]
        for name, agg in doc["aggregates"].items():
            total[name] += agg["total"]
            durations[name].extend(agg["durations"])
            errors[name] += agg["errors"]
        for name, value in doc["counters"].items():
            counters[name] += value

    def calls(name: str) -> int:
        return len(durations[name])

    rank_deficient = sum(1 for doc in docs for s in doc["spans"]
                         if s["name"] == "effects.fit_effects" and s["error"] == "RankDeficientError")
    m = {f"{name}_s": total[name] for name in tracing.SPANNED + tracing.AGGREGATED}
    m.update({k: counters[k] for k in (
        "sim.frames_written", "sim.bytes_written", "ingest.rows", "ingest.rows_rejected",
        "ingest.shots_extracted", "ingest.shots_rejected", "trajectory.retained", "makeprob.rows",
        "effects.rows_fitted", "evaluate.replicates_used", "evaluate.replicates_dropped",
        "cli.bytes_hashed")})
    fit = [d * 1e6 for d in durations["trajectory.fit_trajectory"]]
    effects = [d * 1e3 for d in durations["effects.fit_effects"]]
    m.update({
        "ingest.us_per_row": (total["ingest.load_tracking"] / counters["ingest.rows"] * 1e6
                              if counters["ingest.rows"] else 0.0),
        "trajectory.fit_calls": calls("trajectory.fit_trajectory"),
        "trajectory.fit_errors": errors["trajectory.fit_trajectory"],
        "trajectory.fit_us_p50": tracing.capped_percentile(fit, 50.0)[1],
        "trajectory.fit_us_p99": tracing.capped_percentile(fit, 99.0)[1],
        "trajectory.retention": (counters["trajectory.retained"] / counters["trajectory.filter_input"]
                                 if counters["trajectory.filter_input"] else 0.0),
        "factors.rows": calls("factors.compute_shot_factors") - errors["factors.compute_shot_factors"],
        "factors.rejected": errors["factors.fit_path_line"] + errors["factors.compute_shot_factors"],
        "effects.fit_calls": calls("effects.fit_effects"),
        "effects.fit_ms_p50": tracing.capped_percentile(effects, 50.0)[1],
        "effects.fit_ms_p95": tracing.capped_percentile(effects, 95.0)[1],
        "effects.rank_deficient": rank_deficient,
        "cli.read_shot_rows_calls": calls("cli.read_shot_rows"),
        "cli.startup_s": startup,
        "cli.self_s": cli_self,
    })
    return {k: m[k] for k in PER_LAYER if k in m}


def layer_split(docs: list[dict]) -> dict:
    """Self seconds per layer over the traced processes, plus start-up and unwrapped prepare code."""
    split: dict[str, float] = defaultdict(float)
    for doc in docs:
        split["cli.startup"] += doc["startup_s"]
        for s in doc["spans"]:
            split[s["name"].split(".")[0]] += s["self"]
        for name, agg in doc["aggregates"].items():
            split[name.split(".")[0]] += agg["total"]
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


# --- environment ---------------------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the program's source tree: identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    """The OpenBLAS that numpy loads: its build string and current thread count."""
    spec = importlib.util.find_spec("numpy")
    libs = sorted(glob.glob(str(Path(spec.origin).parent.parent / "numpy.libs" / "*openblas*")))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"library": Path(lib_path).name, "config": config().decode(),
                        "threads": threads()}
    return {"library": "unknown", "threads": None}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --- entry point ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, shape: str, out_dir: Path) -> dict:
    if not (SRC / "shotarc" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'shotarc'} is missing")
    bench = Run(workload, seed, seconds, shape, out_dir)
    try:
        metrics, detail = bench.measure_traced() if trace else bench.measure()
        if not trace:
            bench.store_fingerprints()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    detail.update({
        "workload": workload, "seed": seed, "trace": trace, "shape_name": shape,
        "workload_notes": bench.wl.describe(bench.shape),
        "attempted": bench.runner.attempted, "failed": bench.runner.failed,
        "error_rate": bench.runner.failed / max(1, bench.runner.attempted),
        "errors": bench.runner.errors, "checks": bench.checks.results,
        "golden_summary": bench.golden_summary,
        "environment": environment(seed),
    })
    result = {
        "correct": bench.runner.failed == 0 and bench.checks.ok,
        "attempted": max(1, bench.runner.attempted),
        "failed": bench.runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"detail": detail, "result": result}


def print_human(detail: dict, result: dict) -> None:
    print(f"perfbench {detail['workload']} seed={detail['seed']} trace={int(detail['trace'])} "
          f"shots={detail['workload_notes']['n_shots']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in detail["stages"].items():
        print(f"  {name:<40} {value:>14.6g} s")
    print(f"  {'error_rate':<40} {detail['error_rate']:>14.6g} ratio "
          f"({detail['failed']}/{detail['attempted']})")
    failed = [c for c in detail["checks"] if not c["ok"]]
    print(f"  checks: {len(detail['checks']) - len(failed)}/{len(detail['checks'])} passed")
    for c in failed:
        print(f"    FAILED {c['name']}: {c['detail']}")
    for e in detail["errors"]:
        print(f"    error: {e}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="shotarc pipeline benchmark (one workload)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long season for the smoke test")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"),
                        help="work files, span files and the digest store")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.shape,
                  Path(args.out_dir).resolve())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_human(out["detail"], out["result"])
    print("perfbench-detail " + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
